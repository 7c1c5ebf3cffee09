import math

import numpy as np
import pytest

from semicontract import certificates
from semicontract.certificates import (
    InfeasibleError,
    _cross_check_full_form,
    build_certificate,
    check_rate,
    check_switch_coupling,
    classify_mode,
    decay_constants,
    dwell_bounds_family,
    dwell_bounds_subspace,
    search_scalar_weights,
    tightest_beta,
    tightest_eta,
    tightest_m_bounds,
)
from semicontract.expr import parse_expr
from semicontract.linalg import gen_sym_eig, psd_check
from semicontract.subspaces import log_seminorm, orthonormalize, projector, reduce_weight
from semicontract.system import load_config, make_mode, sample_domain
from semicontract.testdata import bundled_config_path

ONES = np.array([[1.0, 1.0], [1.0, 1.0]])
ALT = np.array([[1.0, -1.0], [-1.0, 1.0]])
COUPLING_CONSTANT = 0.1 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def bundle():
    return load_config(bundled_config_path("saddle2d"))


@pytest.fixture(scope="module")
def grid41(bundle):
    return sample_domain(bundle.system, grid_per_axis=41)


@pytest.fixture(scope="module")
def subspaces():
    return orthonormalize([[1.0, 1.0]]), orthonormalize([[1.0, -1.0]])


@pytest.fixture(scope="module")
def weights(subspaces):
    diag, anti = subspaces
    return {
        "diag": {1: reduce_weight(0.7081 * ONES, diag), 2: reduce_weight(1.1389 * ONES, diag)},
        "anti": {1: reduce_weight(1.1389 * ALT, anti), 2: reduce_weight(0.7081 * ALT, anti)},
    }


def closed_form_sup(points, linear, amplitude, argument_sign):
    """Independent oracle: the reduced rate of the bundled modes is
    linear + amplitude*sin(c*(x1 +/- x2)) in closed form."""
    args = COUPLING_CONSTANT * (points[:, 0] + argument_sign * points[:, 1])
    return float(np.max(linear + amplitude * np.sin(args)))


def test_classification_on_diag_subspace(bundle, grid41, weights):
    tag1, sup1 = classify_mode(bundle.system.mode(1), weights["diag"][1], grid41)
    tag2, sup2 = classify_mode(bundle.system.mode(2), weights["diag"][2], grid41)
    assert (tag1, tag2) == ("S", "U")
    assert sup1 <= -1.98
    assert sup2 <= 0.57
    assert sup1 == pytest.approx(closed_form_sup(grid41.points, -2.0, 0.02, +1), abs=1e-9)
    assert sup2 == pytest.approx(closed_form_sup(grid41.points, 0.5, -0.07, +1), abs=1e-9)


def test_classification_on_antidiag_subspace(bundle, grid41, weights):
    tag1, sup1 = classify_mode(bundle.system.mode(1), weights["anti"][1], grid41)
    tag2, sup2 = classify_mode(bundle.system.mode(2), weights["anti"][2], grid41)
    assert (tag1, tag2) == ("U", "S")
    assert sup1 <= 0.57
    assert sup1 == pytest.approx(closed_form_sup(grid41.points, 0.5, 0.07, -1), abs=1e-9)
    assert sup2 == pytest.approx(closed_form_sup(grid41.points, -2.0, -0.02, -1), abs=1e-9)


def test_classify_pure_decay_mode(grid41):
    mode = make_mode(1, [parse_expr("-x1", 2), parse_expr("-x2", 2)])
    s = orthonormalize([[1.0, 1.0]])
    tag, sup = classify_mode(mode, reduce_weight(projector(s).matrix, s), grid41)
    assert tag == "S"
    assert sup == pytest.approx(-1.0)


def test_tightest_eta_examples(bundle, grid41, weights):
    t_stable = tightest_eta(bundle.system.mode(1), weights["diag"][1], grid41)
    t_unstable = tightest_eta(bundle.system.mode(1), weights["anti"][1], grid41)
    assert t_stable == pytest.approx(closed_form_sup(grid41.points, -2.0, 0.02, +1), abs=1e-9)
    assert t_unstable == pytest.approx(closed_form_sup(grid41.points, 0.5, 0.07, -1), abs=1e-9)
    mode = make_mode(1, [parse_expr("-x1", 2), parse_expr("-x2", 2)])
    s = orthonormalize([[1.0, 1.0]])
    assert tightest_eta(mode, reduce_weight(projector(s).matrix, s), grid41) == pytest.approx(-1.0)


def test_check_rate_stable_mode_accepts_published_eta(bundle, grid41, weights):
    res = check_rate(bundle.system.mode(1), weights["diag"][1], eta=1.5, stable=True,
                     samples=grid41)
    assert res.ok
    assert res.sup_growth <= -1.5


def test_check_rate_simple_decay(grid41):
    mode = make_mode(1, [parse_expr("-x1", 2), parse_expr("-x2", 2)])
    s = orthonormalize([[1.0, 1.0]])
    w = reduce_weight(projector(s).matrix, s)
    assert check_rate(mode, w, eta=0.5, stable=True, samples=grid41).ok
    assert not check_rate(mode, w, eta=1.5, stable=True, samples=grid41).ok


def test_check_rate_unstable_side(bundle, grid41, weights):
    res = check_rate(bundle.system.mode(1), weights["anti"][1], eta=0.6, stable=False,
                     samples=grid41)
    assert res.ok
    res_tight = check_rate(bundle.system.mode(1), weights["anti"][1], eta=0.5, stable=False,
                           samples=grid41)
    assert not res_tight.ok


def test_check_rate_raises_when_the_reduced_form_disagrees_with_the_full_form(
        bundle, grid41, weights, monkeypatch):
    # mode 1 decays at rate ~2 on diag; reduced values shifted up by 3 fail the
    # stable bound -1.5 at the first spot-checked sample, where the full form holds
    monkeypatch.setattr(certificates, "log_seminorm", lambda w, a: log_seminorm(w, a) + 3.0)
    with pytest.raises(RuntimeError, match="disagree at sample 0: full=True, reduced=False"):
        check_rate(bundle.system.mode(1), weights["diag"][1], eta=1.5, stable=True,
                   samples=grid41)


@pytest.mark.parametrize("offset, raises", [(1e-7, False), (1e-5, True), (3.0, True)])
def test_cross_check_exempts_only_disagreements_at_the_boundary(bundle, grid41, weights,
                                                                offset, raises):
    # the full form holds everywhere for bound -1.5; every reduced value is put
    # offset above the bound, past its tolerance 1.5e-9 but within 1.5e-6 of
    # the bound for the smallest offset
    mode, w = bundle.system.mode(1), weights["diag"][1]
    values = np.full(len(grid41), -1.5 + offset)
    if raises:
        with pytest.raises(RuntimeError, match="disagree"):
            _cross_check_full_form(mode, w, -1.5, grid41, values, 1e-9)
    else:
        _cross_check_full_form(mode, w, -1.5, grid41, values, 1e-9)


def test_reduced_full_equivalence_random_instances():
    # the full n x n condition and its reduced block are congruent, so their
    # verdicts must match on arbitrary matrices with matching kernels
    rng = np.random.default_rng(77)
    disagreements = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        h = int(rng.integers(1, min(3, n - 1) + 1))
        s = orthonormalize(rng.standard_normal((h, n)), ambient=n)
        base = rng.standard_normal((h, h))
        reduced = base @ base.T + 0.5 * np.eye(h)
        p = s.basis @ reduced @ s.basis.T
        a = rng.standard_normal((n, n))
        eta = float(rng.uniform(0.1, 2.0))
        stable = bool(rng.integers(0, 2))
        factor = -2.0 * eta if stable else 2.0 * eta
        pi = s.basis @ s.basis.T
        m_full = factor * p - (p @ a @ pi + pi @ a.T @ p)
        full_ok = psd_check((m_full + m_full.T) / 2.0, 1e-8)
        a11 = s.basis.T @ a @ s.basis
        lhs = reduced @ a11 + a11.T @ reduced
        worst = float(gen_sym_eig(lhs, 2.0 * reduced)[-1])
        reduced_ok = worst <= (-eta if stable else eta) + 1e-8 * max(1.0, eta)
        disagreements += int(full_ok != reduced_ok)
    assert disagreements == 0


def test_tightest_beta_published_values(weights):
    assert tightest_beta(weights["diag"][1], weights["diag"][2]) == pytest.approx(1.6084, abs=1e-4)
    assert tightest_beta(weights["diag"][2], weights["diag"][1]) == pytest.approx(0.6217, abs=1e-4)
    assert tightest_beta(weights["anti"][2], weights["anti"][1]) == pytest.approx(1.6084, abs=1e-4)
    assert tightest_beta(weights["diag"][1], weights["diag"][1]) == pytest.approx(1.0)


def test_check_switch_coupling_published_constants(weights):
    assert check_switch_coupling(weights["diag"][1], weights["diag"][2], beta=1.6084).ok
    assert check_switch_coupling(weights["diag"][2], weights["diag"][1], beta=0.6217).ok
    assert check_switch_coupling(weights["diag"][1], weights["diag"][1], beta=1.0).ok
    # a clearly violated jump factor is rejected
    assert not check_switch_coupling(weights["diag"][1], weights["diag"][2], beta=1.5).ok


def test_check_switch_coupling_rejects_kernel_mismatch(weights):
    with pytest.raises(ValueError):
        check_switch_coupling(weights["diag"][1], weights["anti"][1], beta=2.0)


def test_tightest_m_bounds(weights):
    lo, hi = tightest_m_bounds(weights["diag"][1])
    assert lo == pytest.approx(1.4162)
    assert hi == pytest.approx(1.4162)
    s = orthonormalize([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w = reduce_weight(np.diag([1.0, 4.0, 0.0]), s)
    assert tightest_m_bounds(w) == pytest.approx((1.0, 4.0))
    w_pi = reduce_weight(projector(s).matrix, s)
    assert tightest_m_bounds(w_pi) == pytest.approx((1.0, 1.0))


def certificate_for(bundle, grid41, weights, key, ids):
    system = bundle.system
    s = weights[key][1].subspace
    return build_certificate(
        system, s, {q: weights[key][q] for q in ids}, grid41,
        beta_stable=1.6084, beta_unstable=0.6217, eta_stable=1.5, eta_unstable=0.6,
    )


def test_dwell_bounds_subspace_published(bundle, grid41, weights):
    cert = certificate_for(bundle, grid41, weights, "diag", (1, 2))
    bounds = dwell_bounds_subspace(cert)
    assert bounds.lower[1] == pytest.approx(0.1584, abs=1e-4)
    assert bounds.upper[2] == pytest.approx(0.3960, abs=1e-4)


def test_dwell_bound_log_identity():
    mode = make_mode(1, [parse_expr("-x1", 1)])
    # beta = e^2 and eta = 1 give a dwell bound of exactly 1
    assert math.log(math.e**2) / (2.0 * 1.0) == pytest.approx(1.0)


def test_dwell_bounds_family_published(bundle, grid41, weights):
    cert_diag = certificate_for(bundle, grid41, weights, "diag", (1, 2))
    cert_anti = certificate_for(bundle, grid41, weights, "anti", (1, 2))
    bounds = dwell_bounds_family([cert_diag, cert_anti])
    for q in (1, 2):
        assert bounds.lower[q] == pytest.approx(0.1584, abs=1e-4)
        assert bounds.upper[q] == pytest.approx(0.3960, abs=1e-4)
    assert bounds.provenance == "family-aggregated"


def test_dwell_bounds_family_singleton_matches_subspace(bundle, grid41, weights):
    cert = certificate_for(bundle, grid41, weights, "diag", (1, 2))
    # a single rank-1 subspace is not separating in the plane
    with pytest.raises(InfeasibleError):
        dwell_bounds_family([cert])
    assert dwell_bounds_subspace(cert).provenance == "per-subspace"
    # on a separating (full-space) singleton the aggregation reduces exactly
    system = load_config(
        {
            "dimension": 2,
            "domain": [[-1, 1], [-1, 1]],
            "modes": [
                {"id": 1, "field": ["-x1", "-x2"]},
                {"id": 2, "field": ["-2*x1", "-2*x2"]},
            ],
        }
    ).system
    s_full = orthonormalize([[1.0, 0.0], [0.0, 1.0]])
    w_full = {1: np.eye(2), 2: 1.5 * np.eye(2)}
    cert_full = build_certificate(system, s_full, w_full, sample_domain(system, 5))
    agg = dwell_bounds_family([cert_full])
    solo = dwell_bounds_subspace(cert_full)
    assert agg.lower == solo.lower and agg.upper == solo.upper


def test_dwell_bounds_family_equal_constants_match_single(bundle, grid41, weights):
    cert_diag = certificate_for(bundle, grid41, weights, "diag", (1, 2))
    cert_anti = certificate_for(bundle, grid41, weights, "anti", (1, 2))
    family = dwell_bounds_family([cert_diag, cert_anti])
    solo_d = dwell_bounds_subspace(cert_diag)
    solo_a = dwell_bounds_subspace(cert_anti)
    assert family.lower[1] == pytest.approx(solo_d.lower[1])
    assert family.upper[1] == pytest.approx(solo_a.upper[1])


def test_decay_constants_published(bundle, grid41, weights):
    cert = certificate_for(bundle, grid41, weights, "diag", (1, 2))
    dc = decay_constants(cert, tau_lower=0.35, tau_upper=0.35)
    stable_term = abs(-2 * 1.5 + math.log(1.6084) / 0.35)
    unstable_term = abs(2 * 0.6 + math.log(0.6217) / 0.35)
    assert stable_term == pytest.approx(1.642, abs=1e-3)
    assert unstable_term == pytest.approx(0.158, abs=1e-3)
    assert dc.value_rate == pytest.approx(min(stable_term, unstable_term), abs=1e-12)
    assert dc.norm_rate == pytest.approx(dc.value_rate / 2.0)
    assert dc.norm_rate == pytest.approx(0.079, abs=1e-3)


def test_decay_constants_single_stable_mode(grid41, bundle):
    system = load_config(
        {
            "dimension": 2,
            "domain": [[-5, 5], [-5, 5]],
            "modes": [{"id": 1, "field": ["-x1", "-x2"]}],
        }
    ).system
    s = orthonormalize([[1.0, 0.0], [0.0, 1.0]])
    cert = build_certificate(system, s, {1: np.eye(2)}, sample_domain(system, 5),
                             beta_stable=1.0, eta_stable=1.0)
    dc = decay_constants(cert, tau_lower=None, tau_upper=None)
    assert dc.value_rate == pytest.approx(2.0)
    assert dc.norm_prefactor == pytest.approx(1.0)


def test_decay_constants_boundary_behaviour(bundle, grid41, weights):
    # the governing stable term -2 eta + ln(beta)/tau tends to 0 as the dwell
    # time approaches its bound from above
    cert = certificate_for(bundle, grid41, weights, "diag", (1, 2))
    tau_lb = math.log(1.6084) / (2 * 1.5)
    unstable_term = abs(2 * 0.6 + math.log(0.6217) / 0.35)
    previous = math.inf
    for eps in (1e-2, 1e-4):
        dc = decay_constants(cert, tau_lower=tau_lb + eps, tau_upper=0.35)
        stable_term = abs(-2 * 1.5 + math.log(1.6084) / (tau_lb + eps))
        assert dc.value_rate == pytest.approx(min(stable_term, unstable_term), abs=1e-12)
        assert stable_term < previous
        previous = stable_term
    assert previous < 2 * 1.5 * 1e-3  # vanishing at the boundary
    with pytest.raises(InfeasibleError):
        decay_constants(cert, tau_lower=tau_lb * 0.9, tau_upper=0.35)
    with pytest.raises(InfeasibleError):
        decay_constants(cert, tau_lower=0.35, tau_upper=0.5)


def test_certificate_scale_invariance(bundle, grid41, weights, subspaces):
    diag, _ = subspaces
    for c in (0.1, 10.0):
        scaled = {
            1: reduce_weight(c * 0.7081 * ONES, diag),
            2: reduce_weight(c * 1.1389 * ONES, diag),
        }
        assert tightest_beta(scaled[1], scaled[2]) == pytest.approx(
            tightest_beta(weights["diag"][1], weights["diag"][2]), abs=1e-9
        )
        assert tightest_eta(bundle.system.mode(1), scaled[1], grid41) == pytest.approx(
            tightest_eta(bundle.system.mode(1), weights["diag"][1], grid41), abs=1e-9
        )


def test_sup_growth_monotone_in_samples(bundle, weights):
    coarse = sample_domain(bundle.system, grid_per_axis=11)
    fine = sample_domain(bundle.system, grid_per_axis=21)
    mode = bundle.system.mode(1)
    assert tightest_eta(mode, weights["diag"][1], fine) >= tightest_eta(
        mode, weights["diag"][1], coarse
    ) - 1e-12


def test_search_scalar_weights_recovers_configured_ratio(bundle, grid41, subspaces):
    diag, anti = subspaces
    cert = search_scalar_weights(
        bundle.system, diag, grid41,
        beta_stable=1.6084, beta_unstable=0.6217, eta_stable=1.5, eta_unstable=0.6,
    )
    ratio = cert.weights[2].reduced[0, 0] / cert.weights[1].reduced[0, 0]
    assert ratio == pytest.approx(1.6084, abs=1e-3)
    assert cert.tags == {1: "S", 2: "U"}
    bounds = dwell_bounds_subspace(cert)
    assert bounds.lower[1] == pytest.approx(0.1584, abs=1e-3)
    assert bounds.upper[2] == pytest.approx(0.3960, abs=1e-3)


def test_search_scalar_weights_single_stable_mode(grid41):
    system = load_config(
        {
            "dimension": 2,
            "domain": [[-5, 5], [-5, 5]],
            "modes": [{"id": 1, "field": ["-x1", "-x2"]}],
        }
    ).system
    s = orthonormalize([[1.0, 1.0]])
    cert = search_scalar_weights(system, s, sample_domain(system, 11))
    assert cert.tags == {1: "S"}
    assert cert.beta_stable is None and cert.beta_unstable is None


def test_search_scalar_weights_two_expanding_modes_infeasible():
    system = load_config(
        {
            "dimension": 2,
            "domain": [[-1, 1], [-1, 1]],
            "modes": [
                {"id": 1, "field": ["x1", "-x2"]},
                {"id": 2, "field": ["2*x1", "-x2"]},
            ],
        }
    ).system
    s = orthonormalize([[1.0, 0.0]])
    with pytest.raises(InfeasibleError):
        search_scalar_weights(system, s, sample_domain(system, 5))


def test_build_certificate_rejects_non_invariant_subspace(bundle, grid41):
    s = orthonormalize([[1.0, 0.0]])  # neither mode leaves span(e2) invariant
    with pytest.raises(InfeasibleError):
        build_certificate(bundle.system, s, {1: projector(s).matrix, 2: projector(s).matrix},
                          grid41)
