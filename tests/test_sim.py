import math

import numpy as np
import pytest

from semicontract import sim
from semicontract.certificates import DwellBounds
from semicontract.signals import SwitchingSignal, generate_periodic, generate_random, \
    verify_per_activation
from semicontract.sim import (
    DivergenceError,
    RateFit,
    distance_trace,
    fit_rate,
    integrate,
    integrate_variational,
    projected_trace,
    run_simulation,
    step_halving_agreement,
)
from semicontract.subspaces import orthonormalize, projector
from semicontract.system import compiled_field, compiled_jacobian, eval_field, \
    eval_jacobian, load_config
from semicontract.testdata import bundled_config_path


@pytest.fixture(scope="module")
def bundle():
    return load_config(bundled_config_path("saddle2d"))


@pytest.fixture(scope="module")
def decay_system():
    return load_config(
        {
            "dimension": 1,
            "domain": [[-2, 2]],
            "modes": [{"id": 1, "field": ["-x1"]}],
        }
    ).system


@pytest.fixture(scope="module")
def zero_system():
    return load_config(
        {
            "dimension": 2,
            "domain": [[-2, 2], [-2, 2]],
            "modes": [{"id": 1, "field": ["0", "0"]}],
        }
    ).system


def single_mode_signal(horizon):
    return SwitchingSignal(0.0, ((0.0, 1),), horizon)


def test_compiled_evaluators_match_ast(bundle):
    rng = np.random.default_rng(4)
    for mode in bundle.system.modes:
        fast_f = compiled_field(mode)
        fast_j = compiled_jacobian(mode)
        for _ in range(50):
            x = rng.uniform(-5, 5, size=2)
            assert np.allclose(fast_f(x), eval_field(mode, x), atol=1e-14)
            assert np.allclose(fast_j(x), eval_jacobian(mode, x), atol=1e-14)


def test_integrate_scalar_linear_ode(decay_system):
    traj = integrate(decay_system, single_mode_signal(1.0), [1.0], step=1e-3)
    assert traj.states[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_integrate_zero_field_constant(zero_system):
    traj = integrate(zero_system, single_mode_signal(2.0), [0.7, -0.3], step=1e-2)
    assert np.allclose(traj.states, [0.7, -0.3])


def test_integrate_aligns_switch_times(bundle):
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.0)
    traj = integrate(bundle.system, sig, [2.0, -1.0], step=1e-3)
    for t in sig.switch_times:
        hits = np.isclose(traj.times, t, atol=1e-12).sum()
        assert hits == 1
    # no step straddles a switch: every sample is inside one segment
    assert np.all(np.diff(traj.times) > 0)


def test_integrate_contraction_of_bundled_pair(bundle):
    sig = generate_periodic([1, 2], 0.35, 0.0, 10.0)
    assert step_halving_agreement(bundle.system, sig, [2.0, -1.0], 1e-3) < 1e-6
    ta = integrate(bundle.system, sig, [2.0, -1.0], step=1e-3)
    tb = integrate(bundle.system, sig, [-2.0, 1.0], step=1e-3)
    d = distance_trace(ta, tb)
    assert d[-1] < 1e-3 * d[0]


def test_integrate_rejects_uncovered_span(decay_system):
    with pytest.raises(ValueError):
        integrate(decay_system, single_mode_signal(1.0), [1.0], step=1e-3, t_end=2.0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_reported_with_time():
    system = load_config(
        {
            "dimension": 1,
            "domain": [[-10, 10]],
            "modes": [{"id": 1, "field": ["x1^2"]}],
        }
    ).system
    with pytest.raises(DivergenceError) as err:
        integrate(system, single_mode_signal(5.0), [1.0], step=1e-3)
    assert 0.0 < err.value.time <= 5.0


def test_convergence_order_is_fourth(bundle):
    # halving the step shrinks the error against a step/8 reference ~16x
    sig = generate_periodic([1, 2], 0.35, 0.0, 0.7)
    x0 = [2.0, -1.0]
    ref = integrate(bundle.system, sig, x0, step=2e-3 / 8).states[-1]
    err_h = np.linalg.norm(integrate(bundle.system, sig, x0, step=2e-3).states[-1] - ref)
    err_h2 = np.linalg.norm(integrate(bundle.system, sig, x0, step=1e-3).states[-1] - ref)
    assert err_h / err_h2 == pytest.approx(16.0, rel=0.5)


def test_variational_linear_mode_matches_matrix_exponential():
    system = load_config(
        {
            "dimension": 2,
            "domain": [[-2, 2], [-2, 2]],
            "modes": [{"id": 1, "field": ["-x1", "-x2"]}],
        }
    ).system
    sig = single_mode_signal(1.0)
    x_traj = integrate(system, sig, [0.5, 0.5], step=1e-3)
    trace = integrate_variational(system, sig, x_traj, [1.0, 1.0])
    assert np.allclose(trace.states[-1], [math.exp(-1.0)] * 2, atol=1e-8)


def test_variational_zero_start_stays_zero(bundle):
    sig = generate_periodic([1, 2], 0.35, 0.0, 1.4)
    x_traj = integrate(bundle.system, sig, [1.0, 1.0], step=1e-3)
    trace = integrate_variational(bundle.system, sig, x_traj, [0.0, 0.0])
    assert np.all(trace.states == 0.0)


def test_variational_finite_difference_consistency(bundle):
    # first-order perturbation oracle over 2 s
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.0)
    x0 = np.array([2.0, -1.0])
    y0 = np.array([1.0, 0.5])
    eps = 1e-6
    base = integrate(bundle.system, sig, x0, step=1e-3)
    bumped = integrate(bundle.system, sig, x0 + eps * y0, step=1e-3)
    fd = (bumped.states - base.states) / eps
    trace = integrate_variational(bundle.system, sig, base, y0)
    scale = np.maximum(np.linalg.norm(trace.states, axis=1), 1e-12)
    rel = np.linalg.norm(fd - trace.states, axis=1) / scale
    assert float(np.max(rel)) < 1e-4


def test_projected_trace_examples(bundle):
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.0)
    x_traj = integrate(bundle.system, sig, [1.0, -2.0], step=1e-3)
    diag = projector(orthonormalize([[1.0, 1.0]]))
    anti = projector(orthonormalize([[1.0, -1.0]]))
    full = projector(orthonormalize([[1.0, 0.0], [0.0, 1.0]]))
    # a perturbation confined to the complement stays there for these modes
    trace_perp = integrate_variational(bundle.system, sig, x_traj, [1.0, -1.0])
    assert np.max(projected_trace(trace_perp, diag)) <= 1e-9 * np.max(
        np.linalg.norm(trace_perp.states, axis=1)
    )
    trace = integrate_variational(bundle.system, sig, x_traj, [1.0, 0.0])
    assert np.allclose(
        projected_trace(trace, full), np.linalg.norm(trace.states, axis=1)
    )
    both = projected_trace(trace, diag) ** 2 + projected_trace(trace, anti) ** 2
    assert np.allclose(np.sqrt(both), np.linalg.norm(trace.states, axis=1), atol=1e-10)


def test_projected_trace_period_envelope(bundle):
    # after each full period the projected seminorm must have shrunk
    sig = generate_periodic([1, 2], 0.35, 0.0, 7.0)
    x_traj = integrate(bundle.system, sig, [2.0, -1.0], step=1e-3)
    trace = integrate_variational(bundle.system, sig, x_traj, [1.0, 1.0])
    diag = projector(orthonormalize([[1.0, 1.0]]))
    values = projected_trace(trace, diag)
    period_len = 0.7
    period_values = []
    for k in range(10):
        idx = int(np.searchsorted(trace.times, k * period_len))
        period_values.append(values[min(idx, len(values) - 1)])
    assert all(b < a for a, b in zip(period_values, period_values[1:]))


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 5.0, 201)
    fit = fit_rate(t, np.exp(-2.0 * t), (0.0, 5.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.rmse == pytest.approx(0.0, abs=1e-9)
    assert fit.prefactor == pytest.approx(1.0, abs=1e-9)


def test_fit_rate_constant_series():
    t = np.linspace(0.0, 1.0, 50)
    fit = fit_rate(t, np.full_like(t, 3.0), (0.0, 1.0))
    assert fit.rate == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_needs_three_points():
    with pytest.raises(ValueError):
        fit_rate([0.0, 1.0], [1.0, 0.5], (0.0, 1.0))
    assert isinstance(
        fit_rate([0.0, 0.5, 1.0], [1.0, 0.5, 0.25], (0.0, 1.0)), RateFit
    )


def test_fit_rate_floors_zeros():
    t = np.linspace(0.0, 1.0, 10)
    v = np.exp(-t)
    v[3] = 0.0
    fit = fit_rate(t, v, (0.0, 1.0))
    assert fit.floored_points == 1


def test_equal_dwell_alternation_contracts_even_past_the_leave_bound(bundle):
    # Both modes share the eigenframe span{(1,1)}, span{(1,-1)}, so equal-dwell
    # alternation accumulates (-2 + 0.5) tau < 0 per period in each component;
    # the certified leave bound (0.396) is sufficient-only and far from tight
    # for this alternation. The signal checker still flags the violation.
    sig = generate_periodic([1, 2], 1.0, 0.0, 10.0)
    bounds = DwellBounds({1: 0.1584, 2: 0.1584}, {1: 0.3960, 2: 0.3960}, "test", 0.0)
    assert not verify_per_activation(sig, bounds).ok
    ta = integrate(bundle.system, sig, [2.0, -1.0], step=1e-3)
    tb = integrate(bundle.system, sig, [-2.0, 1.0], step=1e-3)
    d = distance_trace(ta, tb)
    assert d[-1] < 1e-2 * d[0]


def test_unequal_dwell_does_diverge(bundle):
    # a genuinely violating schedule: mode 1 held 8x longer than mode 2 lets
    # the antidiagonal component grow by about e^(0.5*0.8-2*0.1) per period
    sig = generate_periodic([1, 2], {1: 0.8, 2: 0.1}, 0.0, 10.0)
    ta = integrate(bundle.system, sig, [2.0, -1.0], step=1e-3)
    tb = integrate(bundle.system, sig, [-2.0, 1.0], step=1e-3)
    d = distance_trace(ta, tb)
    assert d[-1] > d[0]


def test_random_compliant_signal_contracts(bundle):
    bounds = DwellBounds({1: 0.1584, 2: 0.1584}, {1: 0.3960, 2: 0.3960}, "test", 0.0)
    sig = generate_random([1, 2], bounds, 0.0, 10.0, seed=7)
    assert verify_per_activation(sig, bounds).ok
    ta = integrate(bundle.system, sig, [2.0, -1.0], step=1e-3)
    tb = integrate(bundle.system, sig, [-2.0, 1.0], step=1e-3)
    d = distance_trace(ta, tb)
    assert d[-1] < 1e-2 * d[0]


def test_run_simulation_checks_step_halving_on_its_own_runs(bundle, monkeypatch):
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.0)
    x_a0, x_b0 = np.array([2.0, -1.0]), np.array([-2.0, 1.0])
    steps = []
    original = sim.integrate

    def counting(system, signal, x0, step, t_end=None):
        steps.append(step)
        return original(system, signal, x0, step, t_end)

    monkeypatch.setattr(sim, "integrate", counting)
    result = run_simulation(bundle, sig, x_a0, x_b0, 2e-3, {}, None)
    assert sorted(steps) == [1e-3, 1e-3, 2e-3, 2e-3]  # one run and its half-step rerun each
    assert result["step_halving"]["worst_difference"] == max(
        step_halving_agreement(bundle.system, sig, x_a0, 2e-3),
        step_halving_agreement(bundle.system, sig, x_b0, 2e-3),
    )
