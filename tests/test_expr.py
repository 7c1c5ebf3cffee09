import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicontract import expr
from semicontract.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    Add,
    Call,
    Const,
    Div,
    EvaluationError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    differentiate,
    evaluate_checked,
    parse_expr,
    to_python_source,
    to_python_statements,
)
from semicontract.system import load_config
from semicontract.testdata import bundled_config_path


def test_parse_linear_row():
    e = parse_expr("-(3/4)*x1 - (5/4)*x2", 2)
    assert e.evaluate(np.array([1.0, 1.0])) == pytest.approx(-2.0)


def test_parse_variable():
    e = parse_expr("x1", 2)
    assert e.evaluate(np.array([7.0, 0.0])) == 7.0


def test_parse_cos_of_affine_form():
    e = parse_expr("cos(0.070710678*(x1+x2))", 2)
    assert e.evaluate(np.zeros(2)) == pytest.approx(1.0)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_expr("x1 + * 2", 2)
    with pytest.raises(ParseError):
        parse_expr("foo(x1)", 2)
    with pytest.raises(ParseError):
        parse_expr("x3", 2)
    with pytest.raises(ParseError):
        parse_expr("(x1", 2)
    with pytest.raises(ParseError):
        parse_expr("x1^x2", 2)


# an unexpected character is reported at its own position, not at the end of
# the token before it
@pytest.mark.parametrize("text, message", [
    ("x1  @", "unexpected character '@' at position 4"),
    ("x1 $ 2", "unexpected character '$' at position 3"),
    ("x1$", "unexpected character '$' at position 2"),
    ("sin(x1) )", "unexpected trailing ')' at position 8"),
])
def test_tokenizer_errors_name_the_offending_position(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}: ") as info:
        parse_expr(text, 2)
    assert info.value.pos == int(message.rsplit(" ", 1)[1])


def test_diff_square():
    e = parse_expr("x1^2", 1)
    d = differentiate(e, 1)
    for v in (0.0, 1.5, -2.0):
        assert d.evaluate(np.array([v])) == pytest.approx(2.0 * v)


def test_diff_chain_rule_cos():
    c = 0.3
    e = parse_expr(f"cos({c}*(x1+x2))", 2)
    d = differentiate(e, 1)
    x = np.array([0.4, -1.2])
    assert d.evaluate(x) == pytest.approx(-c * np.sin(c * (x[0] + x[1])))


def test_diff_quotient_and_tanh():
    e = parse_expr("tanh(x1)/x2", 2)
    d1 = differentiate(e, 1)
    d2 = differentiate(e, 2)
    x = np.array([0.7, 1.3])
    assert d1.evaluate(x) == pytest.approx((1 - np.tanh(0.7) ** 2) / 1.3)
    assert d2.evaluate(x) == pytest.approx(-np.tanh(0.7) / 1.3**2)


def test_diff_constant_folds():
    e = parse_expr("2*x1 + 3", 1)
    assert differentiate(e, 1) == Const(2.0)
    assert differentiate(parse_expr("x2", 2), 1) == Const(0.0)


def test_power_diff_and_negative_exponent():
    e = Pow(Var(1), -2)
    d = differentiate(e, 1)
    assert d.evaluate(np.array([2.0])) == pytest.approx(-2.0 * 2.0**-3)


def test_batch_evaluation_matches_pointwise():
    e = parse_expr("sin(x1)*x2 - exp(x1/4)", 2)
    pts = np.array([[0.1, 2.0], [-1.0, 0.5], [3.0, -2.0]])
    batch = e.evaluate(pts)
    for k in range(3):
        assert batch[k] == pytest.approx(e.evaluate(pts[k]))


@pytest.mark.parametrize(
    "text",
    [
        "-(3/4)*x1 - (5/4)*x2",
        "cos(0.07071067811865475*(x1 - x2))",
        "x1^3 - 2*x2^2 + tanh(x1*x2)",
        "-x1^2",
        "x1/(x2 + 3) * exp(-x1)",
        "1.5e-2*x1 + 2e3",
    ],
)
def test_print_reparse_round_trip(text):
    rng = np.random.default_rng(42)
    e = parse_expr(text, 2)
    e2 = parse_expr(str(e), 2)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        assert abs(e.evaluate(x) - e2.evaluate(x)) <= 1e-12 * max(1.0, abs(e.evaluate(x)))


def test_round_trip_of_generated_derivatives():
    rng = np.random.default_rng(9)
    exprs = [
        parse_expr("cos(0.5*(x1+x2))*x1 - x2^3/(1 + x1^2)", 2),
        parse_expr("exp(x1)*tanh(x2) + x1*x2", 2),
    ]
    for e in exprs:
        for j in (1, 2):
            d = differentiate(e, j)
            d2 = parse_expr(str(d), 2)
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=2)
                assert d2.evaluate(x) == pytest.approx(d.evaluate(x), abs=1e-12)


def test_unary_minus_binds_to_single_factor():
    e = parse_expr("-x1^2", 1)
    assert e.evaluate(np.array([3.0])) == pytest.approx(-9.0)
    e = parse_expr("-x1*x2", 2)
    assert e.evaluate(np.array([3.0, 2.0])) == pytest.approx(-6.0)


def test_evaluate_checked_reports_subexpression():
    e = parse_expr("x1/(x1 - 1)", 1)
    with pytest.raises(EvaluationError) as err:
        evaluate_checked(e, np.array([1.0]))
    assert "x1 - 1" in str(err.value) or "/" in str(err.value)


def test_call_nodes_are_hashable_values():
    a = Call("sin", Var(1))
    b = Call("sin", Var(1))
    assert a == b and hash(a) == hash(b) and a is b


def test_nodes_are_interned_immutable_and_freed_with_their_last_owner():
    # a constant is keyed by its repr, as kernels render it
    assert Const(0.0) is not Const(-0.0)
    assert Const(math.nan) is Const(math.nan)
    node = Add(Var(1), Const(2.0))
    with pytest.raises(AttributeError):
        node.left = Var(2)
    with pytest.raises(AttributeError):
        node.depth = 1
    # a second load of a configuration builds no node anew
    first, second = ([e for m in load_config(bundled_config_path("saddle2d")).system.modes
                      for e in (*m.field_exprs, *sum(m.jacobian_exprs, ()))] for _ in range(2))
    assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
    gc.collect()
    live = len(expr._LIVE)
    tree = Call("tanh", Add(Var(1), Const(0.123456789)))
    dropped = weakref.ref(tree)
    del tree
    gc.collect()
    assert dropped() is None and len(expr._LIVE) == live  # the intern table forgets it


# expressions over x1, x2 whose constants include both zeros and the non-finite values
EXPRS = st.recursive(
    st.builds(Var, st.integers(1, 2))
    | st.builds(Const, st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan])),
    lambda inner: st.one_of(
        *(st.builds(node, inner, inner) for node in (Add, Sub, Mul, Div)),
        st.builds(Neg, inner),
        st.builds(Pow, inner, st.integers(-2, 3)),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), inner),
    ),
    max_leaves=6,
)


@st.composite
def expression_lists(draw):
    """Targets drawn from a small pool, so that whole expressions repeat, each
    possibly differentiated (derivatives share their operands' nodes) or
    summed with another pool member."""
    pool = draw(st.lists(EXPRS, min_size=1, max_size=3))
    exprs = []
    for _ in range(draw(st.integers(1, 5))):
        e = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            e = differentiate(e, draw(st.integers(1, 2)))
        if draw(st.booleans()):
            e = Add(e, draw(st.sampled_from(pool)))
        exprs.append(e)
    return exprs


def _run(lines, x, numpy):
    namespace = {"math": math, "np": np, "x0": x[0], "x1": x[1]}
    with np.errstate(all="ignore"):
        exec("\n".join(lines), namespace)
    return namespace


@settings(max_examples=300, deadline=None)
@given(expression_lists(), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       st.booleans())
def test_statements_name_each_repeat_once_and_keep_every_bit(exprs, x, numpy):
    targets = [f"t{i}" for i in range(len(exprs))]
    lines = to_python_statements(exprs, targets, "x{}", numpy=numpy)
    assigned = [line.split(" = ", 1) for line in lines]
    names = [name for name, _ in assigned if name.startswith("_s")]
    # each _sN is assigned exactly once, in order, before the targets use them
    assert names == [f"_s{i}" for i in range(len(names))]
    assert [name for name, _ in assigned if not name.startswith("_s")] == targets
    for name, source in assigned:
        if name.startswith("_s"):
            # a named subexpression reads a variable, directly or through a name,
            # is more than a variable, and is used twice (a repeat inside a
            # repeat counts once)
            assert re.search(r"\bx\d|\b_s\d", source) and not re.fullmatch(r"x\d+", source)
            assert sum(len(re.findall(rf"\b{name}\b", rhs)) for _, rhs in assigned) >= 2
    x = [np.array(x), np.array(x[::-1])] if numpy else x
    plain = [to_python_source(e, "x{}", numpy=numpy) for e in exprs]
    try:
        expected = [_run([f"v = {source}"], x, numpy)["v"] for source in plain]
    except (ArithmeticError, ValueError):  # math-module domain and range errors
        with pytest.raises((ArithmeticError, ValueError)):
            _run(lines, x, numpy)
        return
    namespace = _run(lines, x, numpy)
    for target, value in zip(targets, expected):
        assert np.asarray(namespace[target], float).tobytes() == \
            np.asarray(value, float).tobytes()


def test_depth_counts_tree_levels_without_recursion():
    assert Var(1).depth == 1
    assert parse_expr("sin(x1)*x2 - 3", 2).depth == 4
    chain = Var(1)
    for _ in range(9_999):
        chain = Neg(chain)
    assert chain.depth == 10_000  # far past the recursion limit
    assert Add(chain, chain).depth == 10_001


@pytest.mark.parametrize("opening", ["(", "sin("])
def test_parentheses_nest_at_most_max_depth_deep(opening):
    text = opening * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    assert parse_expr(text, 1).depth == (1 if opening == "(" else MAX_DEPTH + 1)
    # the error names the opening parenthesis one level too deep
    position = MAX_DEPTH * len(opening) + len(opening) - 1
    with pytest.raises(ParseError, match=f"^parentheses nested more than {MAX_DEPTH} deep at "
                                         f"position {position}: "):
        parse_expr(opening + text + ")", 1)
