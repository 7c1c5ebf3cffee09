import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    run_simulation,
    step_halving_agreement,
)
from semicontract.expr import Const, evaluate_checked, to_python_source
from semicontract.subspaces import orthonormalize, projector
from semicontract.system import eval_jacobian, load_config
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


# Every DSL node: sin, cos, exp, tanh, division, negation, integer and
# negative powers; dissipative, so trajectories stay bounded.
ALL_NODES_3D = {
    "dimension": 3,
    "domain": [[-3, 3], [-3, 3], [-3, 3]],
    "modes": [
        {"id": 1, "field": [
            "-x1 + sin(x2)*tanh(x3)/(2 + cos(x1))",
            "-x2^3 + exp(-x1^2) - 0.5*x2",
            "-x3 + cos(x1 - x2)^2 - x1*x2*(1 + x1^2 + x2^2)^-1",
        ]},
        {"id": 2, "field": [
            "-2*x1 + 0.3*x2*x3/(1 + x3^2)",
            "-(x2 - tanh(x1)) + 0.2*sin(x3)",
            "-x3^3 - x3 + exp(-(x1 + x2)^2)*cos(x1)",
        ]},
    ],
}

ALL_NODES_1D = {
    "dimension": 1,
    "domain": [[-3, 3]],
    "modes": [
        {"id": 1, "field": ["-x1^3 + sin(x1)/(2 + cos(x1)) - 0.5*tanh(x1)"]},
        {"id": 2, "field": ["-(x1 - 1)*exp(-x1^2) - x1*(1 + x1^2)^-2 - x1"]},
    ],
}


def single_mode_signal(horizon):
    return SwitchingSignal(0.0, ((0.0, 1),), horizon)


# The numpy per-step integrator that the generated kernels replaced, kept
# verbatim (renamed) as the oracle: the kernels must give the same trajectory
# bit for bit.
def _reference_rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + h / 2.0, x + h / 2.0 * k1)
    k3 = f(t + h / 2.0, x + h / 2.0 * k2)
    k4 = f(t + h, x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@lru_cache(maxsize=64)
def reference_compiled_field(mode):
    n = mode.dimension
    body = ", ".join(to_python_source(e) for e in mode.field_exprs)
    fn = eval(f"lambda x: ({body}{',' if n == 1 else ''})", {"math": math})
    return lambda x: np.array(fn(x))


# The segment time grid that integrate built before it counted each segment's
# steps to preallocate its arrays, kept verbatim (renamed) as the oracle of
# the grid it steps through.
def reference_segment_times(t0, t1, step):
    # fixed steps of `step`, final one shortened to land exactly on t1
    span = t1 - t0
    n_full = int(math.floor(span / step + 1e-9))
    times = [t0 + k * step for k in range(n_full + 1)]
    if t1 - times[-1] > 1e-12:
        times.append(t1)
    else:
        times[-1] = t1
    return times


def reference_integrate(system, sig, x0, step):
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    times = [sig.start_time]
    states = [x0]
    boundaries = [0]
    x = x0
    for (seg_start, mode_id), seg_end in zip(sig.events, sig.boundaries[1:]):
        field = reference_compiled_field(system.mode(mode_id))

        def f(_t, state, field=field):
            return field(state)

        seg_times = reference_segment_times(seg_start, seg_end, step)
        for t_prev, t_next in zip(seg_times, seg_times[1:]):
            try:
                x = _reference_rk4_step(f, t_prev, x, t_next - t_prev)
            except ValueError:  # math.sin or math.cos of an infinite stage
                raise DivergenceError(t_next) from None
            if not np.all(np.isfinite(x)):
                raise DivergenceError(t_next)
            times.append(t_next)
            states.append(x)
        boundaries.append(len(times) - 1)
    return sim.Trajectory(np.array(times), np.array(states), np.array(boundaries))


# The ndarray variational integrator that the generated variational kernel
# replaced, kept verbatim (renamed) with its Jacobian evaluator as the oracle;
# the kernel sums J(x) y left to right where numpy's matmul may fuse
# multiply-adds, so the two agree to rounding, not bit for bit.
@lru_cache(maxsize=64)
def reference_compiled_jacobian(mode):
    n = mode.dimension
    rows = ", ".join(
        "(" + ", ".join(to_python_source(e) for e in row) + ("," if n == 1 else "") + ")"
        for row in mode.jacobian_exprs
    )
    fn = eval(f"lambda x: ({rows}{',' if n == 1 else ''})", {"math": math})
    return lambda x: np.array(fn(x))


def reference_integrate_variational(system, sig, x_traj, y0):
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial perturbation must be finite")
    times = x_traj.times
    states = x_traj.states
    y = y0
    out = [y0]
    mode_of = {t: m for t, m in sig.events}
    current = sig.events[0][1]
    jacobians = {m: reference_compiled_jacobian(system.mode(m)) for m in sig.modes}
    for k in range(len(times) - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        if t0 in mode_of:
            current = mode_of[t0]
        jac = jacobians[current]
        x_a, x_b = states[k], states[k + 1]
        h = t1 - t0

        def f(t, yy, jac=jac, t0=t0, h=h, x_a=x_a, x_b=x_b):
            w = 0.0 if h == 0 else (t - t0) / h
            x_t = (1.0 - w) * x_a + w * x_b
            return jac(x_t) @ yy

        y = _reference_rk4_step(f, t0, y, h)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(t1)
        out.append(y)
    return sim.Trajectory(times.copy(), np.array(out), x_traj.boundaries)


def assert_same_as_reference(system, sig, x0, step):
    fast = integrate(system, sig, x0, step)
    ref = reference_integrate(system, sig, x0, step)
    assert np.array_equal(fast.times, ref.times)
    assert np.array_equal(fast.states, ref.states)
    assert np.array_equal(fast.boundaries, ref.boundaries)


def test_compiled_evaluators_match_ast(bundle):
    # the kernels render each field component over locals x0.. ("x{}") and
    # the Jacobian as the variational kernel's statements over locals p0..;
    # points are drawn from each system's whole domain box
    rng = np.random.default_rng(4)
    for system in (bundle.system, load_config(ALL_NODES_3D).system,
                   load_config(ALL_NODES_1D).system):
        n = system.dimension
        for mode in system.modes:
            fast_f = [compile(to_python_source(e, "x{}"), "<field>", "eval")
                      for e in mode.field_exprs]
            fast_j = compile("\n".join(sim._jacobian_statements(mode)), "<jacobian>", "exec")
            for _ in range(50):
                x = rng.uniform(system.domain.lows, system.domain.highs)
                local = {f"x{i}": float(v) for i, v in enumerate(x)}
                value = [eval(code, {"math": math}, local) for code in fast_f]
                field = [evaluate_checked(e, x) for e in mode.field_exprs]
                assert np.allclose(value, field, atol=1e-14)
                local = {f"p{i}": float(v) for i, v in enumerate(x)}
                exec(fast_j, {"math": math}, local)
                jac = [[local[f"j{r}_{c}"] for c in range(n)] for r in range(n)]
                assert np.allclose(jac, eval_jacobian(mode, x), atol=1e-14)


def test_kernels_compute_shared_subexpressions_once(bundle):
    # saddle2d's two field components share both cosine terms, and its four
    # Jacobian entries share the two sines
    mode = bundle.system.mode(1)
    step = sim._rk4_source(mode).split("def kernel")[0]
    assert step.count("cos(") == 8  # 2 per stage
    step = sim._rk4_source(mode, True).split("def kernel")[0]
    assert step.count("sin(") == 6  # 2 per stage time; stages b and c share one
    jacobian = sim._jacobian_statements(mode)
    rhs = [line.split(" = ", 1)[1] for line in jacobian]
    assert len(set(rhs)) == len(rhs)
    for line in jacobian:
        # each named subexpression is used at least twice
        name = line.split(" = ", 1)[0]
        if name.startswith("_s"):
            assert sum(r.count(name) for r in rhs) >= 2


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 1.0), st.floats(0.5, 3.0), st.floats(0.3, 1.0), st.floats(1e-3, 1e-2),
       st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
def test_kernel_equals_reference_on_periodic_signals(bundle, dwell, horizon, cut, step, x0):
    sig = generate_periodic([1, 2], dwell, 0.0, cut * horizon)
    assert_same_as_reference(bundle.system, sig, x0, step)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.5, 3.0), st.floats(1e-3, 1e-2),
       st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
def test_kernel_equals_reference_on_random_compliant_signals(bundle, seed, horizon, step, x0):
    bounds = DwellBounds({1: 0.1584, 2: 0.1584}, {1: 0.3960, 2: 0.3960}, "test", 0.0)
    sig = generate_random([1, 2], bounds, 0.0, horizon, seed=seed)
    assert_same_as_reference(bundle.system, sig, x0, step)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([ALL_NODES_1D, ALL_NODES_3D]), st.floats(0.05, 0.8),
       st.floats(1e-3, 1e-2), st.integers(0, 2**32 - 1))
def test_kernel_equals_reference_on_every_dsl_node(doc, dwell, step, seed):
    system = load_config(doc).system
    x0 = np.random.default_rng(seed).uniform(-3, 3, size=system.dimension)
    sig = generate_periodic([1, 2], dwell, 0.0, 2.0)
    assert_same_as_reference(system, sig, x0, step)


def assert_variational_close_to_reference(system, sig, x0, y0, step):
    x_traj = integrate(system, sig, x0, step)
    fast = integrate_variational(system, sig, x_traj, y0)
    ref = reference_integrate_variational(system, sig, x_traj, y0)
    assert np.array_equal(fast.times, ref.times)
    np.testing.assert_allclose(fast.states, ref.states, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref.states)))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 1.0), st.floats(0.5, 3.0), st.floats(1e-3, 1e-2),
       st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
def test_variational_kernel_matches_reference_on_periodic_signals(bundle, dwell, horizon,
                                                                   step, xy):
    sig = generate_periodic([1, 2], dwell, 0.0, horizon)
    assert_variational_close_to_reference(bundle.system, sig, xy[:2], xy[2:], step)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.5, 3.0), st.floats(1e-3, 1e-2),
       st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
def test_variational_kernel_matches_reference_on_random_signals(bundle, seed, horizon, step, xy):
    bounds = DwellBounds({1: 0.1584, 2: 0.1584}, {1: 0.3960, 2: 0.3960}, "test", 0.0)
    sig = generate_random([1, 2], bounds, 0.0, horizon, seed=seed)
    assert_variational_close_to_reference(bundle.system, sig, xy[:2], xy[2:], step)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([ALL_NODES_1D, ALL_NODES_3D]), st.floats(0.05, 0.8),
       st.floats(1e-3, 1e-2), st.integers(0, 2**32 - 1))
def test_variational_kernel_matches_reference_on_every_dsl_node(doc, dwell, step, seed):
    system = load_config(doc).system
    x0, y0 = np.random.default_rng(seed).uniform(-3, 3, size=(2, system.dimension))
    sig = generate_periodic([1, 2], dwell, 0.0, 2.0)
    assert_variational_close_to_reference(system, sig, x0, y0, step)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0), st.floats(0.05, 1.0),
       st.floats(0.3, 3.0), st.floats(1e-3, 1e-2))
def test_runs_sample_every_signal_boundary_exactly(bundle, periodic, seed, t0, dwell,
                                                   length, step):
    if periodic:
        sig = generate_periodic([1, 2], dwell, t0, t0 + length)
    else:
        bounds = DwellBounds({1: 0.1584, 2: 0.1584}, {1: 0.3960, 2: 0.3960}, "test", 0.0)
        sig = generate_random([1, 2], bounds, t0, t0 + length, seed=seed)
    x_traj = integrate(bundle.system, sig, [2.0, -1.0], step)
    y_traj = integrate_variational(bundle.system, sig, x_traj, [1.0, 0.5])
    for run in (x_traj, y_traj):
        assert run.times[run.boundaries].tolist() == list(sig.boundaries)


@pytest.mark.filterwarnings("ignore:overflow")
def test_variational_divergence_reported_at_the_reference_time():
    # y' = 400 y along a constant stored trajectory overflows near t = 1.77
    flat = load_config({"dimension": 1, "domain": [[-2, 2]],
                        "modes": [{"id": 1, "field": ["0"]}]}).system
    fast_growth = load_config({"dimension": 1, "domain": [[-2, 2]],
                               "modes": [{"id": 1, "field": ["400*x1"]}]}).system
    sig = single_mode_signal(2.0)
    x_traj = integrate(flat, sig, [1.0], step=1e-3)
    with pytest.raises(DivergenceError) as err:
        integrate_variational(fast_growth, sig, x_traj, [1.0])
    with pytest.raises(DivergenceError) as ref_err:
        reference_integrate_variational(fast_growth, sig, x_traj, [1.0])
    assert err.value.time == ref_err.value.time
    assert 1.7 < err.value.time < 1.8


def test_variational_rejects_a_perturbation_of_the_wrong_shape(bundle):
    sig = single_mode_signal(1.0)
    x_traj = integrate(bundle.system, sig, [1.0, 1.0], step=1e-2)
    with pytest.raises(ValueError, match=r"\(3,\).*\(2,\)"):
        integrate_variational(bundle.system, sig, x_traj, [1.0, 0.0, 0.0])


def test_variational_rejects_a_trajectory_of_another_signal(bundle):
    # its arrays are sized from the trajectory, whose rows the signal's
    # segments would not all fill
    traj = integrate(bundle.system, generate_periodic([1, 2], 0.35, 0.0, 2.0), [2.0, -1.0], 1e-2)
    with pytest.raises(ValueError, match="trajectory has 7 signal boundaries, the signal 4"):
        integrate_variational(bundle.system, generate_periodic([1, 2], 0.35, 0.0, 1.0), traj,
                              [1.0, 0.5])


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


def test_division_by_a_state_reaching_zero_is_divergence():
    # x1 = 1 - t lands on 0 exactly at t = 1 with a power-of-two step
    system = load_config(
        {
            "dimension": 2,
            "domain": [[-10, 10], [-10, 10]],
            "modes": [{"id": 1, "field": ["-1", "1/x1"]}],
        }
    ).system
    with pytest.raises(DivergenceError) as err:
        integrate(system, single_mode_signal(2.0), [1.0, 0.0], step=2.0**-7)
    assert 0.0 < err.value.time <= 2.0


# 1/x1 and x1^-1 raise ZeroDivisionError on the Python float 0.0 but give inf
# on numpy scalars, and tanh or exp(-.) brings that back to a finite value
SATURATED_POLES = {
    "dimension": 2,
    "domain": [[-3, 3], [-3, 3]],
    "modes": [
        {"id": 1, "field": ["tanh(1/x1)", "-x2"]},
        {"id": 2, "field": ["-x1 + exp(-1/x1^2)", "-x2 + x2*tanh(x1^-1)"]},
    ],
}


@pytest.mark.parametrize("x0", [[0.0, 1.0], [-0.0, 0.0]])
@pytest.mark.parametrize("first_mode", [1, 2])
def test_saturated_pole_at_a_zero_state_is_integrated_like_the_reference(x0, first_mode):
    system = load_config(SATURATED_POLES).system
    sig = generate_periodic([first_mode, 3 - first_mode], 0.25, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert_same_as_reference(system, sig, x0, 1e-2)
    assert np.all(np.isfinite(integrate(system, sig, x0, 1e-2).states))


def test_exp_overflow_is_divergence():
    system = load_config(
        {
            "dimension": 1,
            "domain": [[-10, 10]],
            "modes": [{"id": 1, "field": ["exp(x1)"]}],
        }
    ).system
    with pytest.raises(DivergenceError) as err:
        integrate(system, single_mode_signal(1.0), [700.0], step=1e-3)
    assert 0.0 < err.value.time <= 1.0


# x1*x1 overflows to inf without raising, and math.sin(inf) then raises
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sin_of_an_overflowed_stage_is_divergence():
    system = load_config(
        {"dimension": 2, "domain": [[-2, 2], [-2, 2]],
         "modes": [{"id": 1, "field": ["x1*x1", "sin(x1) - x2"]}]}
    ).system
    times = []
    for run in (integrate, reference_integrate):
        with pytest.raises(DivergenceError) as err:
            run(system, single_mode_signal(3.0), [1.0, 0.0], 1e-3)
        times.append(err.value.time)
    assert 1.0 < times[0] == times[1] <= 3.0


# 1e999 parses to Const(inf); the second field also holds inf*0 = nan and its
# Jacobian a Const(nan)
@pytest.mark.parametrize("field", ["-1e999*x1^2 + 0*x1", "1e999*0*x1 - x1"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_constants_integrate_like_the_reference(field):
    system = load_config(
        {"dimension": 1, "domain": [[-2, 2]], "modes": [{"id": 1, "field": [field]}]}
    ).system
    outcomes = []
    for run in (integrate, reference_integrate):
        try:
            trajectory = run(system, single_mode_signal(1.0), [1.0], 1e-2)
            outcomes.append((trajectory.times.tolist(), trajectory.states.tolist()))
        except DivergenceError as err:
            outcomes.append(err.time)
    assert outcomes[0] == outcomes[1]


def test_non_finite_constants_render_through_the_math_module():
    sources = [to_python_source(Const(v)) for v in (math.inf, -math.inf, math.nan)]
    assert sources == ["math.inf", "(-math.inf)", "math.nan"]
    values = [eval(source, {"math": math}) for source in sources]
    assert values[:2] == [math.inf, -math.inf] and math.isnan(values[2])


def test_integrate_rejects_a_state_of_the_wrong_dimension(bundle):
    with pytest.raises(ValueError):
        integrate(bundle.system, single_mode_signal(1.0), [1.0, 2.0, 3.0], step=1e-2)


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


def projected_trace(trace, proj):
    """Pointwise seminorm ||Pi y(t)|| of a variational trace."""
    return np.linalg.norm(trace.states @ proj.matrix.T, axis=1)


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
    events = [(0.9 * k + 0.8 * j, 1 + j) for k in range(12) for j in (0, 1)]
    sig = SwitchingSignal(0.0, tuple(e for e in events if e[0] < 10.0), 10.0)
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

    def counting(system, signal, x0, step):
        steps.append(step)
        return original(system, signal, x0, step)

    monkeypatch.setattr(sim, "integrate", counting)
    result, _ = run_simulation(bundle, sig, x_a0, x_b0, 2e-3, None)
    assert sorted(steps) == [1e-3, 1e-3, 2e-3, 2e-3]  # one run and its half-step rerun each
    assert result["step_halving"]["worst_difference"] == max(
        step_halving_agreement(bundle.system, sig, x_a0, 2e-3),
        step_halving_agreement(bundle.system, sig, x_b0, 2e-3),
    )


def test_run_simulation_reports_the_first_domain_exit(bundle):
    # a compliant periodic run from (4.5, -4.5) leaves the certified box
    # [-5, 5]^2 (peak |x| = 5.25) before it contracts
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.0)
    result, traces = run_simulation(bundle, sig, np.array([-2.0, 1.0]),
                                    np.array([4.5, -4.5]), 1e-3, None)
    assert {"name": "trajectories_within_domain", "ok": False} in result["verdicts"]
    exit_ = result["domain_exit"]
    assert exit_["trajectory"] == "b"
    assert 0.0 < exit_["time"] < 0.35
    traj = traces["b"]
    k = int(np.searchsorted(traces["times"], exit_["time"]))
    assert bundle.system.domain.first_outside(traj[:k]) is None
    assert bundle.system.domain.first_outside(traj[k]) == 0
    inside, _ = run_simulation(bundle, sig, np.array([2.0, -1.0]), np.array([-2.0, 1.0]),
                               1e-3, None)
    assert {"name": "trajectories_within_domain", "ok": True} in inside["verdicts"]
    assert "domain_exit" not in inside


def test_run_simulation_projects_onto_the_bundles_subspaces_in_bundle_order(bundle):
    # saddle2d declares diag before antidiag, which is not name order
    sig = generate_periodic([1, 2], 0.35, 0.0, 1.0)
    _, traces = run_simulation(bundle, sig, np.array([2.0, -1.0]), np.array([-2.0, 1.0]),
                               2e-3, None)
    assert list(traces["projections"]) == [spec.name for spec in bundle.subspaces]
    assert list(traces["projections"]) == ["diag", "antidiag"]
    for spec in bundle.subspaces:
        pi = projector(spec.subspace).matrix
        expected = np.linalg.norm((traces["a"] - traces["b"]) @ pi.T, axis=1)
        np.testing.assert_array_equal(traces["projections"][spec.name], expected)


def test_run_simulation_fits_the_rate_on_the_last_80_percent(bundle):
    sig = generate_periodic([1, 2], 0.35, 0.0, 5.0)
    result, traces = run_simulation(bundle, sig, np.array([2.0, -1.0]),
                                    np.array([-2.0, 1.0]), 2e-3, None)
    assert result["rate_fit"]["window"] == [1.0, 5.0]
    fit = fit_rate(traces["times"], traces["distance"], (1.0, 5.0))
    assert result["rate_fit"]["rate"] == fit.rate


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_run_simulation_of_a_diverging_pair_has_no_traces():
    blowup = load_config({"dimension": 1, "domain": [[-10, 10]],
                          "modes": [{"id": 1, "field": ["x1^2"]}, {"id": 2, "field": ["x1^2"]}]})
    sig = generate_periodic([1, 2], 1.0, 0.0, 5.0)
    result, traces = run_simulation(blowup, sig, np.array([1.0]), np.array([0.5]), 1e-3, None)
    assert traces is None
    assert result["verdicts"] == [{"name": "finite_trajectories", "ok": False}]

# The per-row trace CSV writer that the single-format writer replaced, kept as
# the oracle: the files must be the same strings.
def reference_csv_text(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


CSV_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 3.0, -7.0, 1e22,
     math.inf, -math.inf, math.nan])


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "trace.csv"


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 6)),
                  elements=CSV_FLOATS))
@example(np.zeros((0, 2)))
@example(np.full((1, 3), -0.0))
@example(np.arange(18.0).reshape(6, 3) / 7.0)
@example(np.arange(28.0).reshape(7, 4) * 1e-17)
def test_csv_writer_matches_the_per_row_reference(csv_path, rows):
    # blocks of 3 rows: the 0-12 rows cover an empty file, a single row,
    # exact multiples of the block and a ragged last block
    header = ",".join(f"c{j}" for j in range(rows.shape[1]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "CSV_BLOCK_ROWS", 3)
        sim._write_csv(csv_path, header, rows)
    assert csv_path.read_text() == reference_csv_text(header, rows)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Bytes that writing the traces of a run, plot included, may allocate at its
# peak, whatever the run's length, with blocks of TRACE_BLOCK_ROWS rows; the
# plot, at most svgplot.MAX_POINTS points a series, takes about 330 kB.
TRACE_WRITE_PEAK = 400_000
TRACE_BLOCK_ROWS = 256


def test_integrate_and_write_traces_hold_no_run_as_python_floats(bundle, tmp_path):
    # a 10 s periodic run at step 1e-3 has 10,001 samples; integrate used to
    # keep them as one list of Python floats (32 B a value against numpy's 8),
    # and write_traces each trace file as one string copied twice
    x_a0, x_b0 = np.array([2.0, -1.0]), np.array([-2.0, 1.0])
    integrate(bundle.system, generate_periodic([1, 2], 0.35, 0.0, 1.0), x_a0, 1e-3)  # kernels
    sig = generate_periodic([1, 2], 0.35, 0.0, 10.0)
    traj, peak = traced_peak(integrate, bundle.system, sig, x_a0, 1e-3)
    assert len(traj.times) == 10_001
    assert peak <= 2 * (traj.times.nbytes + traj.states.nbytes + traj.boundaries.nbytes)
    _, traces = run_simulation(bundle, sig, x_a0, x_b0, 1e-3, None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "CSV_BLOCK_ROWS", TRACE_BLOCK_ROWS)
        _, peak = traced_peak(sim.write_traces, tmp_path, sig, traces, True, "10 s")
    # the bound is below the size of each trace file, so no writer that holds
    # a whole file can meet it
    for name in ("trajectory_a.csv", "trajectory_b.csv", "distance.csv"):
        assert (tmp_path / name).stat().st_size > TRACE_WRITE_PEAK
    assert peak < TRACE_WRITE_PEAK
