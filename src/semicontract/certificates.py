"""Switching certificates on a subspace: mode classification, jump and rate
conditions, dwell/leave-time bounds, decay constants, and a scalar-weight
search."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import PSD_TOL, frobenius, gen_sym_eig
from .subspaces import Subspace, WeightedSeminorm, _project, \
    _reduced_growth, check_invariance, check_separating, projector, reduce_weight
from .system import Mode, SampleSet, SwitchedSystem

# Jump-factor comparisons default to the granularity of 4-decimal published
# constants rather than the 1e-9 semidefinite default; an exact reciprocal
# pair rounded to 4 decimals is otherwise rejected.
COUPLING_TOL = 1e-4
# Multiplicative safety margin applied when dwell bounds are derived from
# tightest (raw) constants.
DEFAULT_MARGIN = 1e-6
# Weight ratio the scalar-weight search gives an expanding mode when no jump
# factor is configured.
ESCALATION = math.e

STABLE = "S"
UNSTABLE = "U"


class InfeasibleError(ValueError):
    """No certificate of the requested form exists."""


class NotInvariantError(InfeasibleError):
    """The complement of the subspace is not invariant under some mode;
    invariance holds the result of every mode (mode id -> InvarianceResult)."""

    def __init__(self, message: str, subspace: Subspace, invariance: dict):
        super().__init__(message)
        self.subspace = subspace
        self.invariance = invariance


def growth_values(mode: Mode, w: WeightedSeminorm, samples: SampleSet) -> np.ndarray:
    """Weighted log-seminorm of the mode Jacobian at every sample point: the
    bits of log_seminorm under w.rate_block, as the sample set's read-only
    array for (subspace, mode, rate block), so a scalar multiple c Pi of Pi
    reads Pi's array. It is computed on the first call, from the set's one
    projection of the mode's stack on the subspace, and returned as is on
    every later one.
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    basis = w.subspace.basis
    a11 = samples.computed((mode, basis.tobytes()),
                           lambda: _project(basis, samples.jacobians(mode)))
    return samples.computed((mode, basis.tobytes(), w.rate_block.tobytes()),
                            lambda: _reduced_growth(w.rate_block, a11))


def classify_mode(mode: Mode, w: WeightedSeminorm, samples: SampleSet):
    """Tag a mode semi-contracting (S) or expanding (U) on the subspace.

    Returns (tag, sup growth). S iff the growth rate is negative at every
    sample; the verdict is sampled evidence over the domain, not a proof.
    """
    sup = tightest_eta(mode, w, samples)
    return (STABLE if sup < 0.0 else UNSTABLE), sup


def tightest_eta(mode: Mode, w: WeightedSeminorm, samples: SampleSet) -> float:
    """Sup over samples of the reduced rate. Negative values mean the mode is
    semi-contracting with best stable rate -value; positive values are the best
    expansion rate bound."""
    return float(np.max(growth_values(mode, w, samples)))


@dataclass(frozen=True, eq=False)
class RateCheck:
    ok: bool
    value: float           # sup over samples of the reduced rate
    bound: float           # -eta for the stable check, +eta for the unstable one
    margin: float          # bound + tolerance - value
    tolerance: float
    worst_point: np.ndarray


def check_rate(mode: Mode, w: WeightedSeminorm, eta: float, stable: bool,
               samples: SampleSet, tol: float = PSD_TOL) -> RateCheck:
    """Verify the reduced rate condition R A11 + A11^T R <= -/+ 2 eta R at every
    sample. It alone decides: its congruent n x n form P A Pi + Pi A^T P <=
    -/+ 2 eta P is the oracle of the tests."""
    if eta <= 0:
        raise ValueError("rate constants must be positive")
    values = growth_values(mode, w, samples)
    worst = int(np.argmax(values))
    sup = float(values[worst])
    bound = -eta if stable else eta
    slack = tol * max(1.0, abs(bound))
    ok = sup <= bound + slack
    return RateCheck(bool(ok), sup, bound, bound + slack - sup, tol,
                     samples.points[worst])


def _require_same_subspace(w_from: WeightedSeminorm, w_to: WeightedSeminorm):
    pf = w_from.subspace.basis @ w_from.subspace.basis.T
    pt = w_to.subspace.basis @ w_to.subspace.basis.T
    if frobenius(pf - pt) > 1e-8 * max(1.0, frobenius(pf)):
        raise ValueError("weights do not share a kernel (different subspaces)")


def tightest_beta(w_from: WeightedSeminorm, w_to: WeightedSeminorm) -> float:
    """Smallest beta with R_to <= beta R_from: the largest generalized
    eigenvalue of (R_to, R_from)."""
    if w_from.subspace is not w_to.subspace:
        _require_same_subspace(w_from, w_to)
    if w_from.reduced.shape == (1, 1):
        return float(w_to.reduced[0, 0] / w_from.reduced[0, 0])
    return float(gen_sym_eig(w_to.reduced, w_from.reduced)[-1])


@dataclass(frozen=True)
class CouplingCheck:
    ok: bool
    ratio: float   # tightest feasible beta
    bound: float   # requested beta
    margin: float
    tolerance: float


def check_switch_coupling(w_from: WeightedSeminorm, w_to: WeightedSeminorm,
                          beta: float) -> CouplingCheck:
    """Verify R_to <= beta R_from within the relative tolerance COUPLING_TOL."""
    return coupling_check(tightest_beta(w_from, w_to), beta)


def coupling_check(ratio: float, beta: float) -> CouplingCheck:
    """Compare a tightest jump ratio with the requested factor beta."""
    slack = COUPLING_TOL * max(1.0, abs(beta))
    return CouplingCheck(bool(ratio <= beta + slack), ratio, beta,
                         beta + slack - ratio, COUPLING_TOL)


def tightest_jump_factor(ratios: dict, modes) -> float | None:
    """Largest of the jump ratios (q, r) -> beta out of the given modes q, or
    None when no switch leaves them."""
    return max((v for (q, _), v in ratios.items() if q in modes), default=None)


@dataclass(frozen=True, eq=False)
class SubspaceCertificate:
    """Weights and constants certifying contraction of the switched flow on one
    subspace, Lyapunov-style: value jumps at switches are bounded by the jump
    factors and the value decays (grows) at the stable (unstable) rates."""

    subspace: Subspace
    weights: dict            # mode id -> WeightedSeminorm, all sharing ker = complement
    tags: dict               # mode id -> "S" | "U"
    sup_growth: dict         # mode id -> sampled sup of the reduced rate
    beta_stable: float | None   # jump factor leaving a semi-contracting mode (>= 1)
    beta_unstable: float | None  # jump factor leaving an expanding mode (in (0,1))
    eta_stable: float | None     # decay rate on semi-contracting modes (> 0)
    eta_unstable: float | None   # growth bound on expanding modes (> 0)
    m_lower: float           # tightest with m_lower Pi <= P_q <= m_upper Pi for all q:
    m_upper: float           # the extremal eigenvalues of the reduced weights
    invariance: dict         # mode id -> InvarianceResult of the complement hypothesis
    jump_ratios: dict        # (q, r) -> tightest_beta(weights[q], weights[r]), q != r

    def __post_init__(self):
        if not 0.0 < self.m_lower <= self.m_upper:
            raise ValueError("weight scale bounds must satisfy 0 < m_lower <= m_upper")

    @property
    def stable_modes(self):
        return sorted(q for q, tag in self.tags.items() if tag == STABLE)

    @property
    def unstable_modes(self):
        return sorted(q for q, tag in self.tags.items() if tag == UNSTABLE)


@dataclass(frozen=True)
class DwellBounds:
    """Per-mode average dwell-time lower bounds (semi-contracting modes) and
    leave-time upper bounds (expanding modes), in seconds."""

    lower: dict  # mode id -> minimum average dwell
    upper: dict  # mode id -> maximum average leave
    provenance: str
    margin: float  # multiplicative margin applied to the constants; 0 means
                   # the boundary values of the open inequalities


def dwell_bounds_family(certs, margin: float = 0.0) -> DwellBounds:
    """family_bounds over a family of subspace certificates that must be
    separating; InfeasibleError if it is not."""
    certs = list(certs)
    if not certs:
        raise ValueError("empty certificate list")
    if not check_separating([projector(c.subspace) for c in certs]):
        raise InfeasibleError("subspace seminorms do not form a separating family")
    return family_bounds(certs, margin)


def family_bounds(certs, margin: float = 0.0) -> DwellBounds:
    """Per-tag aggregation (example-consistent interpretation): a mode's dwell
    bound uses max ln(beta) and min eta over the certificates where it carries
    that tag, so a mode that is semi-contracting on one subspace and expanding
    on another carries both bounds. Over one certificate it gives that
    certificate's own bounds. It does not test that the family separates."""
    certs = list(certs)
    lower = {}
    upper = {}
    for q in sorted({q for c in certs for q in c.tags}):
        s_certs = [c for c in certs if c.tags.get(q) == STABLE]
        u_certs = [c for c in certs if c.tags.get(q) == UNSTABLE]
        if s_certs:
            betas = [c.beta_stable for c in s_certs if c.beta_stable is not None]
            etas = [c.eta_stable for c in s_certs]
            if betas and all(e is not None for e in etas):
                beta = max(betas) * (1.0 + margin)
                eta = min(etas) * (1.0 - margin)
                lower[q] = math.log(beta) / (2.0 * eta)
        if u_certs:
            betas = [c.beta_unstable for c in u_certs]
            etas = [c.eta_unstable for c in u_certs]
            if any(b is None for b in betas):
                raise InfeasibleError(f"mode {q} is expanding without an unstable jump factor")
            beta = min(max(betas) * (1.0 + margin), 1.0 - 1e-15)
            eta = min(etas) * (1.0 + margin)
            upper[q] = -math.log(beta) / (2.0 * eta)
    return DwellBounds(lower, upper, "family-aggregated", margin)


@dataclass(frozen=True)
class DecayConstants:
    """Exponential envelope of the certificate value V and the projected norm:
    V(t) <= value_prefactor * exp(-value_rate (t-t0)) V(t0) and
    ||Pi y(t)|| <= norm_prefactor * exp(-norm_rate (t-t0)) ||Pi y(t0)||."""

    value_rate: float      # decay rate of the quadratic value
    value_prefactor: float
    norm_prefactor: float
    norm_rate: float       # value_rate / 2


def decay_constants(cert: SubspaceCertificate, tau_lower: float | None,
                    tau_upper: float | None) -> DecayConstants:
    """Decay rate and prefactors for average dwell times satisfying the bounds
    strictly: tau_lower above the stable bound, tau_upper below the unstable one;
    tau_lower may be None only at beta_S = 1, tau_upper only without expanding
    modes. The chatter bounds of both average-dwell conditions are 1."""
    terms = []
    log_sum = 0.0
    if cert.stable_modes:
        beta = cert.beta_stable if cert.beta_stable is not None else 1.0
        eta = cert.eta_stable
        if eta is None:
            raise ValueError("certificate has no stable rate")
        if tau_lower is None and beta > 1.0:
            raise ValueError("a stable jump factor above 1 needs an average dwell time")
        jump = math.log(beta) / tau_lower if beta > 1.0 else 0.0
        term = -2.0 * eta + jump
        if term >= 0:
            raise InfeasibleError("average dwell time violates the stable bound")
        terms.append(abs(term))
        log_sum += len(cert.stable_modes) * math.log(beta)
    if cert.unstable_modes:
        beta = cert.beta_unstable
        eta = cert.eta_unstable
        if beta is None or eta is None:
            raise ValueError("certificate has no unstable constants")
        if tau_upper is None:
            raise ValueError("expanding modes need an average leave time")
        term = 2.0 * eta + math.log(beta) / tau_upper
        if term >= 0:
            raise InfeasibleError("average leave time violates the unstable bound")
        terms.append(abs(term))
        log_sum += len(cert.unstable_modes) * math.log(beta)
    if not terms:
        raise ValueError("certificate classifies no modes")
    rate = min(terms)
    prefactor = math.exp(log_sum)
    norm_prefactor = math.sqrt(prefactor * cert.m_upper / cert.m_lower)
    return DecayConstants(rate, prefactor, norm_prefactor, rate / 2.0)


def _invariance(system: SwitchedSystem, s: Subspace, samples: SampleSet) -> dict:
    """The hypothesis that the complement of s is invariant under every mode:
    mode id -> InvarianceResult, in system order. Raises NotInvariantError,
    naming the first violated mode, when a sample violates it."""
    invariance = {mode.id: check_invariance(mode, s, samples) for mode in system.modes}
    for q, inv in invariance.items():
        if not inv.ok:
            raise NotInvariantError(
                f"complement is not invariant under mode {q} "
                f"(residual {inv.worst_residual:.3e} at {inv.worst_point})", s, invariance)
    return invariance


def build_certificate(system: SwitchedSystem, s: Subspace, weights_by_mode: dict,
                      samples: SampleSet, beta_stable: float | None = None,
                      beta_unstable: float | None = None,
                      eta_stable: float | None = None,
                      eta_unstable: float | None = None) -> SubspaceCertificate:
    """Assemble a certificate from explicit weight matrices (mode id -> (n, n)
    array), deriving any constants not supplied from the tightest feasible
    values."""
    missing = [mode.id for mode in system.modes if mode.id not in weights_by_mode]
    if missing:
        raise ValueError(f"missing weight for mode {missing[0]}")
    invariance = _invariance(system, s, samples)
    weights = {mode.id: reduce_weight(weights_by_mode[mode.id], s) for mode in system.modes}
    return _certificate(system, s, weights, invariance, samples, beta_stable,
                        beta_unstable, eta_stable, eta_unstable)


def _certificate(system, s, weights, invariance, samples, beta_stable, beta_unstable,
                 eta_stable, eta_unstable) -> SubspaceCertificate:
    # weights and checked invariance results of every mode, in system order
    tags, sups = {}, {}
    for mode in system.modes:
        tags[mode.id], sups[mode.id] = classify_mode(mode, weights[mode.id], samples)
    stable = [q for q, t in tags.items() if t == STABLE]
    unstable = [q for q, t in tags.items() if t == UNSTABLE]
    ratios = {(q, r): tightest_beta(weights[q], weights[r])
              for q in weights for r in weights if r != q}
    if beta_stable is None and (tight := tightest_jump_factor(ratios, stable)) is not None:
        # R_to <= beta R_from for beta < 1 implies it for beta = 1, the paper's range
        beta_stable = max(tight, 1.0)
    if beta_unstable is None:
        beta_unstable = tightest_jump_factor(ratios, unstable)
        if beta_unstable is not None and beta_unstable >= 1.0:
            raise InfeasibleError(
                "some switch out of an expanding mode does not drop the weight "
                f"(tightest unstable jump factor {beta_unstable:.6g} >= 1)"
            )
    if eta_stable is None and stable:
        eta_stable = min(-sups[q] for q in stable)
    if eta_unstable is None and unstable:
        eta_unstable = max(max(sups[q] for q in unstable), 1e-300)
    return SubspaceCertificate(
        subspace=s, weights=weights, tags=tags, sup_growth=sups,
        beta_stable=beta_stable, beta_unstable=beta_unstable,
        eta_stable=eta_stable, eta_unstable=eta_unstable,
        m_lower=min(float(w.eigenvalues[0]) for w in weights.values()),
        m_upper=max(float(w.eigenvalues[-1]) for w in weights.values()),
        invariance=invariance, jump_ratios=ratios,
    )


def search_scalar_weights(system: SwitchedSystem, s: Subspace, samples: SampleSet,
                          beta_stable: float | None = None,
                          beta_unstable: float | None = None,
                          eta_stable: float | None = None,
                          eta_unstable: float | None = None) -> SubspaceCertificate:
    """Search scalar weights p_q * Pi over the given subspace.

    Classification and rates are weight-independent for scalar weights: every
    weight reads the growth arrays of the unit weight Pi, the arrays that
    classify the modes. So the search only has to order the scales: every
    switch out of an expanding mode must strictly drop the weight. That is
    feasible iff at most one mode is expanding on this subspace (two expanding
    modes need each other's weight to be strictly smaller). Semi-contracting
    modes share weight 1 and the expanding mode, if present, gets the
    escalation ratio: the stable jump factor when one is supplied (so
    configured constants are reproduced exactly), the reciprocal of a
    supplied unstable jump factor, otherwise ESCALATION.
    """
    pi = projector(s).matrix
    unit = reduce_weight(pi, s)
    invariance = _invariance(system, s, samples)
    tags = {mode.id: classify_mode(mode, unit, samples)[0] for mode in system.modes}
    stable = [q for q, t in tags.items() if t == STABLE]
    unstable = [q for q, t in tags.items() if t == UNSTABLE]
    if not stable:
        raise InfeasibleError(
            "no semi-contracting mode on this subspace: scalar weights cannot "
            "make every expanding-mode exit drop"
        )
    if len(unstable) >= 2:
        raise InfeasibleError(
            "two expanding modes each require the other's weight to be strictly "
            "smaller; scalar weights are infeasible"
        )
    ratio = 1.0
    if unstable:
        if beta_stable is not None:
            ratio = beta_stable
        elif beta_unstable is not None:
            ratio = 1.0 / beta_unstable
        else:
            ratio = ESCALATION
        if ratio <= 1.0:
            raise InfeasibleError("escalation ratio must exceed 1 for a strict drop")
    # a mode at ratio 1 keeps the unit weight: 1.0 * pi has the bits of pi
    weights = {m.id: replace(reduce_weight(ratio * pi, s), rate_block=unit.reduced)
               if m.id in unstable else unit for m in system.modes}
    return _certificate(system, s, weights, invariance, samples, beta_stable,
                        beta_unstable, eta_stable, eta_unstable)
