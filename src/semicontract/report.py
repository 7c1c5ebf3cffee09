"""Analysis pipeline: runs the certificate checks over a configuration and
assembles the machine-readable report."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .certificates import (
    DEFAULT_MARGIN,
    DwellBounds,
    InfeasibleError,
    NotInvariantError,
    build_certificate,
    check_rate,
    coupling_check,
    decay_constants,
    family_bounds,
    search_scalar_weights,
    tightest_eta,
    tightest_jump_factor,
)
from .linalg import PSD_TOL
from .subspaces import check_separating, projector
from .system import ConfigBundle, ConfigError, SampleSet

SCHEMA_VERSION = 1
SAMPLED_EVIDENCE_NOTE = (
    "pass verdicts are sampled evidence over the domain box, not a proof"
)


def config_digest(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


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
    if certs is None:
        samples = replace(samples)
        certs = certificates_from_report(bundle, samples, search_weights)
    system = bundle.system
    verdicts: list[dict] = []

    def record(check: str, ok: bool) -> None:
        verdicts.append({"name": check, "ok": bool(ok)})

    def invariance_section(name, invariance) -> dict:
        for mode in system.modes:
            record(f"{name}:invariance:mode{mode.id}", invariance[mode.id].ok)
        return {str(mode.id): _fields(invariance[mode.id]) for mode in system.modes}

    sections = []
    certified = {}
    for name, cert in certs.items():
        section: dict = {
            "name": name,
            "dimension": cert.subspace.dim,
            "basis": cert.subspace.basis.T.tolist(),
            "invariance": invariance_section(name, cert.invariance),
        }
        sections.append(section)
        if isinstance(cert, NotInvariantError):
            continue
        certified[name] = cert
        section.update(modes={}, coupling={}, constants={}, dwell_bounds={})
        tightest = {}
        for mode in system.modes:
            tag = cert.tags[mode.id]
            eta = cert.eta_stable if tag == "S" else cert.eta_unstable
            rate = check_rate(mode, cert.weights[mode.id], eta, tag == "S", samples, tol)
            record(f"{name}:rate:mode{mode.id}", rate.ok)
            # the certificate's sup_growth[q], read back from samples
            tightest[mode.id] = tightest_eta(mode, cert.weights[mode.id], samples)
            section["modes"][str(mode.id)] = {
                "tag": tag,
                "sup_growth": cert.sup_growth[mode.id],
                "tightest_eta": tightest[mode.id],
                "rate_check": _fields(rate),
            }
        for (q, r), ratio in cert.jump_ratios.items():
            tag = cert.tags[q]
            beta = cert.beta_stable if tag == "S" else cert.beta_unstable
            if beta is None:
                continue
            coupling = coupling_check(ratio, beta)
            record(f"{name}:coupling:{q}->{r}", coupling.ok)
            section["coupling"][f"{q}->{r}"] = {"ok": coupling.ok, "exited_tag": tag,
                                                **_fields(coupling)}
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
        section["dwell_bounds"] = _bounds_section(family_bounds([cert], margin))

    separating = bool(certified) and check_separating([projector(c.subspace)
                                                       for c in certified.values()])
    record("family:separating", separating)
    family: dict = {
        "separating": separating,
        "interpretation": (
            "per-tag aggregation: a mode's bounds come from the subspaces where "
            "it carries that tag (example-consistent interpretation)"
        ),
    }
    if separating:
        bounds = family_bounds(certified.values(), margin)
        family["dwell_bounds"] = _bounds_section(bounds)
        lowers = list(bounds.lower.values())
        uppers = list(bounds.upper.values())
        if lowers and uppers and max(lowers) < min(uppers):
            reference = 0.5 * (max(lowers) + min(uppers))
            decay = {name: _fields(decay_constants(cert, reference, reference))
                     for name, cert in certified.items()}
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


def _fields(check) -> dict:
    # a check record's fields in declaration order, arrays as lists; vars(), as
    # each dataclasses.fields call parks a tuple in CPython's tuple free list
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(check).items()}


def _bounds_section(bounds: DwellBounds) -> dict:
    return {
        "lower": {str(q): v for q, v in sorted(bounds.lower.items())},
        "upper": {str(q): v for q, v in sorted(bounds.upper.items())},
        "margin": bounds.margin,
        "boundary": "open" if bounds.margin == 0.0 else "closed-usable",
    }


def bounds_from_report(report, bundle: ConfigBundle | None = None) -> DwellBounds:
    """The family dwell bounds an analysis report records (read back as
    written by _bounds_section). A report without them, such as one whose
    family does not separate, or with a bound that is not a finite number
    > 0, raises ConfigError; with bundle, so does a report made from another
    configuration or edited to leave one of its modes without bounds."""
    try:
        section = report["family"]["dwell_bounds"]
        bounds = DwellBounds({int(q): v for q, v in section["lower"].items()},
                             {int(q): v for q, v in section["upper"].items()},
                             "report", section.get("margin", 0.0))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"report holds no family dwell bounds ({exc!r})") from None
    for side, taus in (("lower", bounds.lower), ("upper", bounds.upper)):
        for q, tau in taus.items():
            if type(tau) not in (int, float) or not 0 < tau < math.inf:
                raise ConfigError(f"report has the {side} dwell bound {tau!r} for mode {q}, "
                                  "not a finite number > 0")
    if bundle is None:
        return bounds
    provenance = report.get("provenance")  # report is a JSON object from here on
    recorded = provenance.get("config_sha256") if isinstance(provenance, dict) else None
    if recorded != config_digest(bundle.raw):
        raise ConfigError(f"report was made from another configuration (config_sha256 "
                          f"{recorded}, not {config_digest(bundle.raw)})")
    for mode in bundle.system.modes:
        if mode.id not in bounds.lower and mode.id not in bounds.upper:
            raise ConfigError(f"report has no dwell bounds for mode {mode.id}")
    return bounds


def certificates_from_report(bundle: ConfigBundle, samples: SampleSet,
                             search_weights: bool = False):
    """Build each subspace's certificate, in subspace name order: from the
    configured P matrices, or by scalar-weight search when search_weights is
    set or a certificate entry has none. analyze and reproduce take their
    certificates here, so InfeasibleError (no subspaces, or a subspace without
    an entry and no search_weights) stops both alike; simulate reads the
    bounds of an analysis report instead. Every array it computes stays with
    samples. Returns subspace name -> certificate, or the NotInvariantError
    of a subspace whose complement is not invariant."""
    if not bundle.subspaces:
        raise InfeasibleError("configuration declares no subspaces")
    system = bundle.system
    results = {}
    cert_specs = {spec.subspace: spec for spec in bundle.certificates}
    missing = sorted({spec.name for spec in bundle.subspaces} - set(cert_specs))
    if missing and not search_weights:
        raise InfeasibleError(f"no certificates for subspaces {missing}; supply P matrices "
                              "or use weight search")
    for spec in sorted(bundle.subspaces, key=lambda spec: spec.name):
        s = spec.subspace
        cspec = cert_specs.get(spec.name)
        constants = {key: getattr(cspec, key, None) for key in
                     ("beta_stable", "beta_unstable", "eta_stable", "eta_unstable")}
        try:
            if search_weights or not cspec.weights:
                results[spec.name] = search_scalar_weights(system, s, samples, **constants)
            else:
                results[spec.name] = build_certificate(system, s, cspec.weights, samples,
                                                       **constants)
        except NotInvariantError as exc:
            results[spec.name] = exc
        except InfeasibleError as exc:
            raise InfeasibleError(f"subspace {spec.name!r}: {exc}") from None
    return results
