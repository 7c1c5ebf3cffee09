import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semicontract.expr import parse_expr
from semicontract.linalg import NotPositiveDefiniteError, frobenius
from semicontract.subspaces import (
    _project,
    check_invariance,
    check_separating,
    log_seminorm,
    orthonormalize,
    projector,
    reduce_weight,
    seminorm_eval,
)
from semicontract.system import load_config, make_mode, sample_domain
from semicontract.testdata import bundled_config_path

ONES = np.array([[1.0, 1.0], [1.0, 1.0]])
ALT = np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.fixture(scope="module")
def bundle():
    return load_config(bundled_config_path("saddle2d"))


@pytest.fixture(scope="module")
def samples(bundle):
    return sample_domain(bundle.system, grid_per_axis=21)


def random_subspace(rng, n, h):
    return orthonormalize(rng.standard_normal((h, n)), ambient=n)


def test_orthonormalize_single_vector():
    s = orthonormalize([[1.0, 1.0]])
    r = 1.0 / np.sqrt(2.0)
    assert s.dim == 1
    assert np.allclose(np.abs(s.basis[:, 0]), [r, r])


def test_orthonormalize_drops_dependent_vector():
    s = orthonormalize([[1.0, 0.0], [1.0, 1e-15]])
    assert s.dim == 1


def test_orthonormalize_two_canonical():
    s = orthonormalize([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert s.dim == 2


def test_orthonormalize_rejects_zero_input():
    with pytest.raises(ValueError):
        orthonormalize([[0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_orthonormalize_rejects_a_non_finite_vector(bad):
    # NaN would otherwise fail every rank test and be dropped as dependent
    with pytest.raises(ValueError, match="is not finite"):
        orthonormalize([[1.0, 0.0], [bad, 1.0]])


def test_subspace_invariants_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        h = int(rng.integers(1, n + 1))
        s = random_subspace(rng, n, h)
        v = s.basis
        assert frobenius(v.T @ v - np.eye(s.dim)) <= 1e-10


def test_projector_examples():
    assert np.allclose(projector(orthonormalize([[1.0, 1.0]])).matrix, ONES / 2.0)
    assert np.allclose(projector(orthonormalize([[1.0, -1.0]])).matrix, ALT / 2.0)
    full = orthonormalize([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(projector(full).matrix, np.eye(2))


def test_projector_algebra_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        h = int(rng.integers(1, n))
        s = random_subspace(rng, n, h)
        pi = projector(s)
        m = pi.matrix
        assert frobenius(m @ m - m) <= 1e-10
        assert frobenius(m - m.T) <= 1e-12
        # block form in the [basis | complement] frame, the complement taken
        # from the left singular vectors of the basis past its rank
        t = np.hstack([s.basis, np.linalg.svd(s.basis)[0][:, h:]])
        block = t.T @ m @ t
        expected = np.zeros((n, n))
        expected[:h, :h] = np.eye(h)
        assert frobenius(block - expected) <= 1e-10
        # rank h: eigenvalues are h ones and n-h zeros
        eigs = np.linalg.eigvalsh(m)
        assert np.sum(eigs > 0.5) == h
        assert np.all((np.abs(eigs) < 1e-8) | (np.abs(eigs - 1) < 1e-8))


def test_reduce_weight_examples():
    s = orthonormalize([[1.0, 1.0]])
    w = reduce_weight(0.7081 * ONES, s)
    assert np.allclose(w.reduced, [[1.4162]])
    w_id = reduce_weight(projector(s).matrix, s)
    assert np.allclose(w_id.reduced, np.eye(1))
    s2 = orthonormalize([[1.0, -1.0]])
    w2 = reduce_weight(1.1389 * ALT, s2)
    assert np.allclose(w2.reduced, [[2.2778]])


def test_reduce_weight_rejects_kernel_mismatch():
    s = orthonormalize([[1.0, 1.0]])
    with pytest.raises(ValueError):
        reduce_weight(np.eye(2), s)
    with pytest.raises((ValueError, NotPositiveDefiniteError)):
        reduce_weight(np.zeros((2, 2)), s)


def test_seminorm_eval_examples():
    pi = projector(orthonormalize([[1.0, 1.0]]))
    assert seminorm_eval(pi, [1.0, -1.0]) == pytest.approx(0.0, abs=1e-12)
    assert seminorm_eval(pi, [1.0, 1.0]) == pytest.approx(np.sqrt(2.0))
    full = projector(orthonormalize([[1.0, 0.0], [0.0, 1.0]]))
    v = np.array([3.0, -4.0])
    assert seminorm_eval(full, v) == pytest.approx(5.0)


def test_reduce_weight_quadratic_form():
    s = orthonormalize([[1.0, 1.0]])
    w = reduce_weight(0.7081 * ONES, s)
    on, off = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    assert on @ w.weight @ on == pytest.approx(2.8324)
    assert off @ w.weight @ off == pytest.approx(0.0, abs=1e-12)
    w_pi = reduce_weight(projector(s).matrix, s)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(2)
        assert np.sqrt(v @ w_pi.weight @ v) == pytest.approx(seminorm_eval(projector(s), v))
    # matches the reduced form v^T P v = R (basis^T v)^2
    for _ in range(10):
        v = rng.standard_normal(2)
        reduced_val = w.reduced[0, 0] * float(s.basis[:, 0] @ v) ** 2
        assert v @ w.weight @ v == pytest.approx(reduced_val, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    st.floats(-5, 5),
)
def test_seminorm_axioms(v, w, alpha):
    pi = projector(orthonormalize([[1.0, 1.0]]))
    v, w = np.array(v), np.array(w)
    # absolute homogeneity and triangle inequality
    assert seminorm_eval(pi, alpha * v) == pytest.approx(abs(alpha) * seminorm_eval(pi, v), abs=1e-9)
    assert seminorm_eval(pi, v + w) <= seminorm_eval(pi, v) + seminorm_eval(pi, w) + 1e-12


def test_log_seminorm_examples():
    a1_linear = np.array([[-0.75, -1.25], [-1.25, -0.75]])
    s_diag = orthonormalize([[1.0, 1.0]])
    s_anti = orthonormalize([[1.0, -1.0]])
    w_diag = reduce_weight(0.7081 * ONES, s_diag)
    w_anti = reduce_weight(1.1389 * ALT, s_anti)
    assert log_seminorm(w_diag, a1_linear) == pytest.approx(-2.0)
    assert log_seminorm(w_anti, a1_linear) == pytest.approx(0.5)
    assert log_seminorm(w_diag, -np.eye(2)) == pytest.approx(-1.0)
    assert log_seminorm(w_anti, -np.eye(2)) == pytest.approx(-1.0)


def test_log_seminorm_identity_weight_is_l2_measure_of_reduced_block():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        h = int(rng.integers(1, n))
        s = random_subspace(rng, n, h)
        w = reduce_weight(projector(s).matrix, s)
        a = rng.standard_normal((n, n))
        a11 = s.basis.T @ a @ s.basis
        expected = float(np.max(np.linalg.eigvalsh((a11 + a11.T) / 2.0)))
        assert log_seminorm(w, a) == pytest.approx(expected, abs=1e-8)


# entries with both zeros, infinities, NaN and magnitudes from subnormal to
# near overflow, so that the sign of a zero sum and every overflow count
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def basis_and_stack(draw):
    n = draw(st.integers(1, 5))
    h = draw(st.integers(1, n))
    lead = draw(st.sampled_from([(), (0,), (1,), (7,), (2, 3), (0, 2)]))
    basis = draw(hnp.arrays(float, (n, h), elements=EDGE_FLOATS))
    return basis, draw(hnp.arrays(float, lead + (n, n), elements=EDGE_FLOATS))


def canonical_nan(x):
    return np.where(np.isnan(x), np.nan, x)


@settings(max_examples=400, deadline=None)
@given(basis_and_stack())
def test_project_has_the_bits_of_einsum(case):
    basis, a = case
    with np.errstate(all="ignore"):
        got = _project(basis, a)
        want = np.einsum("ia,...ij,jb->...ab", basis, a, basis)
    assert got.shape == want.shape and got.flags.c_contiguous
    # bytes, so that the sign of a zero counts
    if not (np.isnan(basis).any() or np.isnan(a).any()):
        assert got.tobytes() == want.tobytes()
    # a NaN operand that meets another NaN in a sum keeps whichever operand the
    # compiled loop reads first, which einsum does not fix either; the package
    # never projects a non-finite stack (eval_jacobian rejects one)
    assert canonical_nan(got).tobytes() == canonical_nan(want).tobytes()


def test_log_seminorm_scale_invariance():
    rng = np.random.default_rng(12)
    s = random_subspace(rng, 4, 2)
    base = rng.standard_normal((2, 2))
    reduced = base @ base.T + 2 * np.eye(2)
    p = s.basis @ reduced @ s.basis.T
    a = rng.standard_normal((4, 4))
    w1 = reduce_weight(p, s)
    for c in (0.1, 10.0):
        wc = reduce_weight(c * p, s)
        assert log_seminorm(wc, a) == pytest.approx(log_seminorm(w1, a), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.floats(1 / 16, 16),
       st.integers(0, 2**32 - 1))
def test_a_scalar_weight_has_the_log_seminorm_of_its_projector(n, h, c, seed):
    # the licence for a scalar weight c Pi to read Pi's growth arrays:
    # log_seminorm computes afresh, so it is the oracle here. For h >= 2 the
    # two differ by the rounding of c Pi, which the eigensolve carries at the
    # scale of A; 8 h ulps of max(1, ||A||_F) is about twice the worst of
    # 20,000 seeded draws (5 ulps at h = 2, 11 at h = 3)
    h = min(h, n)
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, n, h)
    pi = projector(s).matrix
    a = rng.standard_normal((7, n, n))
    scaled = log_seminorm(reduce_weight(c * pi, s), a)
    unit = log_seminorm(reduce_weight(pi, s), a)
    if h == 1:
        assert scaled.tobytes() == unit.tobytes()
    else:
        scale = np.maximum(1.0, np.linalg.norm(a, axis=(1, 2)))
        assert np.all(np.abs(scaled - unit) <= 8 * h * np.spacing(scale))


def test_invariance_of_complement_for_bundled_modes(bundle, samples):
    # both mode Jacobians are block-diagonal in the {(1,1),(1,-1)} frame
    for span in ([[1.0, 1.0]], [[1.0, -1.0]]):
        s = orthonormalize(span)
        for mode in bundle.system.modes:
            res = check_invariance(mode, s, samples)
            assert res.worst_residual <= 1e-12, f"mode {mode.id} residual {res.worst_residual}"


def test_invariance_shear_counterexample(samples):
    mode = make_mode(1, [parse_expr("x2", 2), parse_expr("0", 2)])  # A = [[0,1],[0,0]]
    s = orthonormalize([[1.0, 0.0]])
    res = check_invariance(mode, s, samples)
    assert not res.ok


def test_invariance_diagonal_jacobian(samples):
    mode = make_mode(1, [parse_expr("-2*x1", 2), parse_expr("3*x2", 2)])
    for span in ([[1.0, 0.0]], [[0.0, 1.0]]):
        s = orthonormalize(span)
        assert check_invariance(mode, s, samples).worst_residual <= 1e-12


def test_check_separating_examples():
    p_diag = projector(orthonormalize([[1.0, 1.0]]))
    p_anti = projector(orthonormalize([[1.0, -1.0]]))
    assert check_separating([p_diag, p_anti])
    assert not check_separating([p_diag])
    assert not check_separating([p_anti])
    full = projector(orthonormalize([[1.0, 0.0], [0.0, 1.0]]))
    assert check_separating([full])
    with pytest.raises(ValueError):
        check_separating([])
