import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicontract.expr import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    EvaluationError,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    evaluate_checked,
    parse_expr,
)
from semicontract.system import (
    Box,
    ConfigError,
    SwitchedSystem,
    _jacobian_kernel,
    eval_jacobian,
    load_config,
    make_mode,
    sample_domain,
)
from semicontract.testdata import bundled_config_path


@pytest.fixture(scope="module")
def bundle():
    return load_config(bundled_config_path("saddle2d"))


def eval_field(mode, x):
    """The vector field at one point, by the AST evaluator."""
    return np.array([evaluate_checked(e, x) for e in mode.field_exprs])


def finite_difference_jacobian(mode, x, h=1e-5):
    n = len(x)
    jac = np.zeros((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        jac[:, j] = (eval_field(mode, x + step) - eval_field(mode, x - step)) / (2 * h)
    return jac


def test_bundled_config_loads(bundle):
    assert bundle.system.dimension == 2
    assert [m.id for m in bundle.system.modes] == [1, 2]
    assert [s.name for s in bundle.subspaces] == ["diag", "antidiag"]
    assert len(bundle.certificates) == 2
    assert set(bundle.certificates[0].weights) == {1, 2}
    assert bundle.certificates[0].beta_stable == pytest.approx(1.6084)
    assert bundle.certificates[0].eta_stable == pytest.approx(1.5)


def test_mode1_field_at_origin(bundle):
    # cos(0) = 1 makes the field the sum of the coupling columns
    f = eval_field(bundle.system.mode(1), np.zeros(2))
    expected = np.array([-0.9, 0.5]) / np.sqrt(2.0)
    assert np.allclose(f, expected, atol=1e-12)


def test_mode_jacobians_at_origin(bundle):
    # sin(0) = 0 kills the nonlinear contribution
    j1 = eval_jacobian(bundle.system.mode(1), np.zeros(2))
    j2 = eval_jacobian(bundle.system.mode(2), np.zeros(2))
    assert np.allclose(j1, [[-0.75, -1.25], [-1.25, -0.75]], atol=1e-12)
    assert np.allclose(j2, [[-0.75, 1.25], [1.25, -0.75]], atol=1e-12)


def test_linear_mode_jacobian_constant():
    mode = make_mode(1, [parse_expr("-x1 + 2*x2", 2), parse_expr("x1 - 3*x2", 2)])
    ja = eval_jacobian(mode, np.zeros(2))
    jb = eval_jacobian(mode, np.array([4.0, -7.0]))
    assert np.allclose(ja, jb)
    assert np.allclose(ja, [[-1.0, 2.0], [1.0, -3.0]])


def test_symbolic_jacobian_matches_finite_differences(bundle):
    rng = np.random.default_rng(123)
    for mode in bundle.system.modes:
        for _ in range(100):
            x = rng.uniform(-5, 5, size=2)
            sym = eval_jacobian(mode, x)
            fd = finite_difference_jacobian(mode, x)
            scale = np.maximum(1.0, np.abs(sym))
            assert np.all(np.abs(sym - fd) / scale <= 1e-6)


def test_batch_jacobian_matches_pointwise(bundle):
    mode = bundle.system.mode(1)
    pts = np.random.default_rng(5).uniform(-5, 5, size=(17, 2))
    batch = eval_jacobian(mode, pts)
    assert batch.shape == (17, 2, 2)
    for k in range(17):
        assert np.allclose(batch[k], eval_jacobian(mode, pts[k]))


def test_grid_sampling_3_per_axis(bundle):
    samples = sample_domain(bundle.system, grid_per_axis=3)
    assert len(samples) == 9
    pts = samples.points
    assert any(np.allclose(p, [0.0, 0.0]) for p in pts)
    for corner in ([-5, -5], [-5, 5], [5, -5], [5, 5]):
        assert any(np.allclose(p, corner) for p in pts)


def test_grid_sampling_2_gives_corners(bundle):
    samples = sample_domain(bundle.system, grid_per_axis=2)
    assert len(samples) == 4
    assert {tuple(p) for p in samples.points} == {(-5, -5), (-5, 5), (5, -5), (5, 5)}


def test_random_sampling_reproducible(bundle):
    a = sample_domain(bundle.system, random_count=50, seed=99)
    b = sample_domain(bundle.system, random_count=50, seed=99)
    assert np.array_equal(a.points, b.points)
    assert bundle.system.domain.first_outside(a.points) is None


def test_box_first_outside_finds_the_first_point_out(bundle):
    box = bundle.system.domain
    points = np.array([[0.0, 0.0], [5.0, -5.0], [5.1, 0.0], [0.0, np.nan], [9.0, 9.0]])
    assert box.first_outside(points) == 2
    assert box.first_outside(points[[0, 1, 3]]) == 2  # nan is outside
    assert box.first_outside(points[:2]) is None
    assert box.first_outside(points[2:3], slack=0.2) is None


def test_empty_sampling_request_rejected(bundle):
    with pytest.raises(ValueError):
        sample_domain(bundle.system, grid_per_axis=1, random_count=0)


def test_mode_ids_must_be_contiguous():
    mode = make_mode(2, [parse_expr("-x1", 1)])
    with pytest.raises(ValueError):
        SwitchedSystem(1, (mode,), Box((-1.0,), (1.0,)))


def test_config_errors():
    with pytest.raises(ConfigError):
        load_config("{not json")
    with pytest.raises(ConfigError):
        load_config({"dimension": 2, "domain": [[-1, 1], [-1, 1]], "modes": [{"id": 1, "field": ["x1"]}]})
    with pytest.raises(ConfigError):
        load_config(
            {
                "dimension": 1,
                "domain": [[-1, 1]],
                "modes": [{"id": 1, "field": ["-x1"]}],
                "subspaces": [{"name": "bad", "span": [[1.0, 0.0]]}],
            }
        )


def test_negative_eta_convention_taken_as_magnitude():
    bundle = load_config(
        {
            "dimension": 1,
            "domain": [[-1, 1]],
            "modes": [{"id": 1, "field": ["-x1"]}],
            "subspaces": [{"name": "s", "span": [[1.0]]}],
            "certificates": [{"subspace": "s", "P": {"1": [[1.0]]}, "eta_S": -1.5}],
        }
    )
    assert bundle.certificates[0].eta_stable == pytest.approx(1.5)


# Random DSL trees over x1, x2 with every node kind: negative and zero
# exponents, constants that divide by zero or overflow exp, and points at
# zero and far out, where the Jacobian is not finite.
CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, 0.3, 700.0, 1e308])
LEAVES = st.one_of(CONSTANTS.map(Const), st.integers(1, 2).map(Var))


def _nodes(children):
    return st.one_of(
        st.builds(Add, children, children), st.builds(Sub, children, children),
        st.builds(Mul, children, children), st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(-3, 4)), st.builds(Neg, children),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
    )


EXPRS = st.recursive(LEAVES, _nodes, max_leaves=8)
POINTS = st.lists(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 800.0, -800.0]),
                                     st.floats(-3.0, 3.0)), min_size=2, max_size=2),
                  min_size=1, max_size=6)


def ast_jacobian(mode, x, evaluate=lambda e, x: e.evaluate(x)):
    # the AST evaluator on every entry, broadcast to the batch; with
    # evaluate_checked it raises naming the first non-finite subexpression
    return np.stack([np.stack([np.broadcast_to(evaluate(e, x), x.shape[:-1]) for e in row],
                              axis=-1) for row in mode.jacobian_exprs], axis=-2)


def outcome(f, *args):
    try:
        return f(*args)
    except (EvaluationError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(EXPRS, EXPRS, POINTS)
# a constant-only 1/0 in the Jacobian: finite through tanh, not finite alone
@example(parse_expr("x1*tanh(1/0)", 2), parse_expr("x2^-2", 2), [[1.0, 2.0], [0.5, -3.0]])
@example(parse_expr("x1*(1/0)", 2), parse_expr("x1*x2", 2), [[1.0, 2.0]])
def test_compiled_jacobian_equals_the_ast_evaluator(f1, f2, points):
    mode = make_mode(1, [f1, f2])
    for x in (np.array(points), np.array(points[0])):
        ref = outcome(ast_jacobian, mode, x)
        got = outcome(_jacobian_kernel(mode), x)
        # only a constant-only division by zero raises on Python floats
        if not (isinstance(got, tuple) and got[0] is ZeroDivisionError):
            assert np.array_equal(got, ref, equal_nan=True)
            numbers = ~np.isnan(ref)
            assert np.array_equal(np.signbit(got[numbers]), np.signbit(ref[numbers]))
        # eval_jacobian returns the AST's stack or raises its error
        expected = outcome(ast_jacobian, mode, x, evaluate_checked)
        result = outcome(eval_jacobian, mode, x)
        if isinstance(expected, tuple):
            assert result == expected
        else:
            assert np.array_equal(result, expected)


def test_modes_equal_up_to_the_sign_of_a_zero_get_their_own_kernels():
    # d/dx1 of (c + c)*x1 is the constant c + c
    modes = [make_mode(1, [Mul(Add(Const(c), Const(c)), Var(1)), Var(2)]) for c in (0.0, -0.0)]
    assert modes[0] != modes[1]
    for order in (modes, modes[::-1]):
        for mode in order:
            jac = eval_jacobian(mode, np.zeros((3, 2)))
            assert np.array_equal(np.signbit(jac), np.signbit(ast_jacobian(mode, np.zeros((3, 2)))))
