"""Analysis pipeline: runs the certificate checks over a configuration and
assembles the machine-readable report."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .certificates import (
    DEFAULT_MARGIN,
    INVARIANCE_TOL,
    DwellBounds,
    InfeasibleError,
    NotInvariantError,
    build_certificate,
    check_rate,
    coupling_check,
    decay_constants,
    dwell_bounds_family,
    dwell_bounds_subspace,
    search_scalar_weights,
    tightest_eta,
    tightest_jump_factor,
)
from .linalg import PSD_TOL
from .subspaces import check_separating, orthonormalize, projector
from .system import ConfigBundle, ConfigError, SampleSet, sample_domain

SCHEMA_VERSION = 1
SAMPLED_EVIDENCE_NOTE = (
    "pass verdicts are sampled evidence over the domain box, not a proof"
)


def config_digest(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def make_samples(bundle: ConfigBundle, grid: int | None, random_count: int | None,
                 seed: int) -> SampleSet:
    """The requested grid and random points; without either, a grid of 21 per
    axis up to dimension 3, otherwise 1000 seeded random points."""
    if grid is None and random_count is None:
        if bundle.system.dimension <= 3:
            return sample_domain(bundle.system, grid_per_axis=21, seed=seed)
        return sample_domain(bundle.system, random_count=1000, seed=seed)
    return sample_domain(bundle.system, grid_per_axis=grid or 0,
                         random_count=random_count or 0, seed=seed)


class UncertifiedError(InfeasibleError):
    """Some subspace's complement is not invariant under some mode, so it has
    no certificate; results maps every subspace name, in order, to its
    certificate or to the NotInvariantError that rejected it."""

    def __init__(self, message: str, results: dict):
        super().__init__(message)
        self.results = results


def analyze(bundle: ConfigBundle, samples: SampleSet, tol: float = PSD_TOL,
            margin: float = DEFAULT_MARGIN, search_weights: bool = False,
            certs: dict | None = None) -> dict:
    """Invariance -> classification -> condition checks -> constants ->
    per-subspace and family bounds -> decay constants. certs, if given, must be
    certificates_from_report(bundle, samples, search_weights), and the report
    reads the arrays that built them from samples; without certs the call
    builds them over a fresh copy of samples, so it does all of its work.

    A subspace whose complement is not invariant gets a section with only its
    invariance results, and the family is evaluated over the subspaces that
    certify.
    """
    if not bundle.subspaces:
        raise InfeasibleError("configuration declares no subspaces")
    missing = sorted({spec.name for spec in bundle.subspaces}
                     - {spec.subspace for spec in bundle.certificates})
    if missing and not search_weights:
        raise InfeasibleError(
            f"no certificates for subspaces {missing}; supply P matrices or use weight search"
        )
    if certs is None:
        samples = replace(samples)
        try:
            certs = certificates_from_report(bundle, samples, search_weights)
        except UncertifiedError as exc:
            certs = exc.results
    return _analysis_report(bundle, samples, tol, margin, search_weights, certs)


def _analysis_report(bundle, samples, tol, margin, search_weights, results) -> dict:
    # results: subspace name -> certificate, or the NotInvariantError without one
    system = bundle.system
    verdicts: list[dict] = []

    def record(check: str, ok: bool) -> None:
        verdicts.append({"name": check, "ok": bool(ok)})

    def invariance_section(name, invariance, tolerance) -> dict:
        section = {}
        for mode in system.modes:
            inv = invariance[mode.id]
            ok = inv.worst_residual <= tolerance
            record(f"{name}:invariance:mode{mode.id}", ok)
            section[str(mode.id)] = {
                "ok": ok,
                "worst_residual": inv.worst_residual,
                "worst_point": inv.worst_point.tolist(),
                "tolerance": tolerance,
            }
        return section

    sections = []
    certs = {}
    for name, cert in results.items():
        rejected = isinstance(cert, NotInvariantError)
        # a rejected subspace is judged at the tolerance its certificate needed
        section: dict = {
            "name": name,
            "dimension": cert.subspace.dim,
            "basis": cert.subspace.basis.T.tolist(),
            "invariance": invariance_section(
                name, cert.invariance, INVARIANCE_TOL if rejected else max(tol, 1e-9)),
        }
        sections.append(section)
        if rejected:
            continue
        certs[name] = cert
        section.update(modes={}, coupling={}, constants={}, dwell_bounds={})
        tightest = {}
        for mode in system.modes:
            tag = cert.tags[mode.id]
            eta = cert.eta_stable if tag == "S" else cert.eta_unstable
            rate = check_rate(mode, cert.weights[mode.id], eta, tag == "S", samples, tol)
            record(f"{name}:rate:mode{mode.id}", rate.ok)
            # the certificate's sup_growth[q], read back from samples
            tight = tightest_eta(mode, cert.weights[mode.id], samples)
            tightest[mode.id] = tight
            section["modes"][str(mode.id)] = {
                "tag": tag,
                "sup_growth": cert.sup_growth[mode.id],
                "tightest_eta": tight,
                "rate_check": {
                    "ok": rate.ok,
                    "value": rate.sup_growth,
                    "bound": rate.bound,
                    "margin": rate.margin,
                    "tolerance": rate.tolerance,
                    "worst_point": rate.worst_point.tolist(),
                },
            }
        for (q, r), ratio in cert.jump_ratios.items():
            tag = cert.tags[q]
            beta = cert.beta_stable if tag == "S" else cert.beta_unstable
            if beta is None:
                continue
            coupling = coupling_check(ratio, beta)
            record(f"{name}:coupling:{q}->{r}", coupling.ok)
            section["coupling"][f"{q}->{r}"] = {
                "ok": coupling.ok,
                "exited_tag": tag,
                "ratio": coupling.ratio,
                "bound": coupling.bound,
                "margin": coupling.margin,
                "tolerance": coupling.tolerance,
            }
        stable_ids = cert.stable_modes
        unstable_ids = cert.unstable_modes
        section["constants"] = {
            "beta_stable": cert.beta_stable,
            "beta_unstable": cert.beta_unstable,
            "eta_stable": cert.eta_stable,
            "eta_unstable": cert.eta_unstable,
            "m_lower": cert.m_lower,
            "m_upper": cert.m_upper,
            "tightest_beta_stable": tightest_jump_factor(cert.jump_ratios, stable_ids),
            "tightest_beta_unstable": tightest_jump_factor(cert.jump_ratios, unstable_ids),
            "tightest_eta_stable": min((-tightest[q] for q in stable_ids), default=None),
            "tightest_eta_unstable": max((tightest[q] for q in unstable_ids), default=None),
        }
        section["dwell_bounds"] = _bounds_section(dwell_bounds_subspace(cert, margin=margin))

    separating = bool(certs) and check_separating([projector(c.subspace)
                                                   for c in certs.values()])
    record("family:separating", separating)
    family: dict = {
        "separating": separating,
        "interpretation": (
            "per-tag aggregation: a mode's bounds come from the subspaces where "
            "it carries that tag (example-consistent interpretation)"
        ),
    }
    if separating:
        bounds = dwell_bounds_family(certs.values(), margin=margin)
        family["dwell_bounds"] = _bounds_section(bounds)
        lowers = list(bounds.lower.values())
        uppers = list(bounds.upper.values())
        if lowers and uppers and max(lowers) < min(uppers):
            reference = 0.5 * (max(lowers) + min(uppers))
            decay = {}
            for name, cert in certs.items():
                dc = decay_constants(cert, reference, reference)
                decay[name] = {
                    "value_rate": dc.value_rate,
                    "value_prefactor": dc.value_prefactor,
                    "norm_prefactor": dc.norm_prefactor,
                    "norm_rate": dc.norm_rate,
                }
            family["decay_at_reference_dwell"] = {
                "reference_dwell": reference,
                "per_subspace": decay,
                "norm_rate": min(d["norm_rate"] for d in decay.values()),
            }
            record("family:dwell_window_nonempty", True)
        elif lowers and uppers:
            record("family:dwell_window_nonempty", False)

    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "provenance": {
            "config_sha256": config_digest(bundle.raw),
            "seed": samples.scheme["seed"],
            "tolerance": tol,
            "margin": margin,
            "sample_scheme": dict(samples.scheme),
            "semicontract": __version__,
            "numpy": np.__version__,
            "search_weights": search_weights,
            "note": SAMPLED_EVIDENCE_NOTE,
        },
        "subspaces": sections,
        "family": family,
        "verdicts": verdicts,
        "all_pass": all(v["ok"] for v in verdicts),
    }


def _bounds_section(bounds: DwellBounds) -> dict:
    return {
        "lower": {str(q): v for q, v in sorted(bounds.lower.items())},
        "upper": {str(q): v for q, v in sorted(bounds.upper.items())},
        "margin": bounds.margin,
        "boundary": "open" if bounds.margin == 0.0 else "closed-usable",
    }


def bounds_from_report(report) -> DwellBounds:
    """The family dwell bounds an analysis report records (read back as
    written by _bounds_section); a report without them, such as one whose
    family does not separate, raises ConfigError."""
    try:
        section = report["family"]["dwell_bounds"]
        return DwellBounds({int(q): v for q, v in section["lower"].items()},
                           {int(q): v for q, v in section["upper"].items()},
                           "report", section.get("margin", 0.0))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"report holds no family dwell bounds ({exc!r})") from None


def certificates_from_report(bundle: ConfigBundle, samples: SampleSet,
                             search_weights: bool = False):
    """Build each subspace's certificate, in subspace name order: from the
    configured P matrices, or by scalar-weight search when search_weights is
    set or a subspace has none. This is the analysis' own certificate source;
    every array it computes stays with samples. Raises UncertifiedError, after
    trying every subspace, when a complement is not invariant."""
    system = bundle.system
    results = {}
    cert_specs = {spec.subspace: spec for spec in bundle.certificates}
    for spec in sorted(bundle.subspaces, key=lambda spec: spec.name):
        s = orthonormalize(spec.span, ambient=system.dimension)
        cspec = cert_specs.get(spec.name)
        constants = {key: getattr(cspec, key, None) for key in
                     ("beta_stable", "beta_unstable", "eta_stable", "eta_unstable")}
        try:
            if search_weights or cspec is None or not cspec.weights:
                results[spec.name] = search_scalar_weights(system, s, samples, **constants)
            else:
                results[spec.name] = build_certificate(system, s, cspec.weights, samples,
                                                       **constants)
        except NotInvariantError as exc:
            results[spec.name] = exc
    rejected = [r for r in results.values() if isinstance(r, NotInvariantError)]
    if rejected:
        raise UncertifiedError(str(rejected[0]), results)
    return results
