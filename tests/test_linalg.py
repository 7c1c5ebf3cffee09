import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semicontract.linalg import (
    SYMMETRY_TOL,
    NotPositiveDefiniteError,
    SymEigResult,
    as_square_symmetric,
    cholesky,
    frobenius,
    gen_sym_eig,
    psd_check,
    sym_eig,
)
from semicontract.subspaces import log_seminorm, orthonormalize, reduce_weight

# Reference eigensolver: cyclic Jacobi rotations, unconditionally stable for
# symmetric input and independent of LAPACK. The package's LAPACK-backed
# routines are checked against it.

# Relative off-diagonal Frobenius mass at which Jacobi is converged.
JACOBI_TOL = 1e-13
# Hard cap on full Jacobi sweeps.
MAX_SWEEPS = 50


class NotConvergedError(RuntimeError):
    """The Jacobi iteration did not reach the off-diagonal threshold."""


def _normalize_column_signs(q: np.ndarray) -> np.ndarray:
    # Fix each eigenvector's sign by its largest-magnitude entry (first on
    # ties) so results are deterministic across runs.
    q = q.copy()
    for j in range(q.shape[1]):
        col = q[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            q[:, j] = -col
    return q


def jacobi_sym_eig(a) -> SymEigResult:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations."""
    a = as_square_symmetric(a, "sym_eig input")
    n = a.shape[0]
    scale = frobenius(a)
    q = np.eye(n)
    if n == 1 or scale == 0.0:
        w = np.diag(a).copy()
        order = np.argsort(w, kind="stable")
        return SymEigResult(w[order], _normalize_column_signs(q[:, order]))

    a = a.copy()
    threshold = JACOBI_TOL * scale
    for _ in range(MAX_SWEEPS):
        off = frobenius(a - np.diag(np.diag(a)))
        if off < threshold:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = a[p, r]
                if abs(apr) <= 0.0:
                    continue
                # Classic two-sided rotation choosing the smaller angle.
                tau = (a[r, r] - a[p, p]) / (2.0 * apr)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, r]
                rot_r = s * a[:, p] + c * a[:, r]
                a[:, p], a[:, r] = rot_p, rot_r
                rot_p = c * a[p, :] - s * a[r, :]
                rot_r = s * a[p, :] + c * a[r, :]
                a[p, :], a[r, :] = rot_p, rot_r
                # Zero the target pair explicitly to cut round-off drift.
                a[p, r] = a[r, p] = 0.0
                rot_p = c * q[:, p] - s * q[:, r]
                rot_r = s * q[:, p] + c * q[:, r]
                q[:, p], q[:, r] = rot_p, rot_r
    else:
        raise NotConvergedError(f"Jacobi did not converge in {MAX_SWEEPS} sweeps")

    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return SymEigResult(w[order], _normalize_column_signs(q[:, order]))


def jacobi_inverse_sqrt(p) -> np.ndarray:
    res = jacobi_sym_eig(p)
    q = res.eigenvectors
    return q @ np.diag(1.0 / np.sqrt(res.eigenvalues)) @ q.T


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def test_sym_eig_diagonal():
    res = sym_eig([[2.0, 0.0], [0.0, 3.0]])
    assert np.allclose(res.eigenvalues, [2.0, 3.0])


def test_sym_eig_rank_one_projector():
    res = sym_eig(np.full((2, 2), 0.5))
    assert np.allclose(res.eigenvalues, [0.0, 1.0], atol=1e-12)


def test_sym_eig_saddle_linear_part():
    # closed form for [[a, b], [b, a]]: eigenvalues a -/+ b
    a = np.array([[-0.75, -1.25], [-1.25, -0.75]])
    res = sym_eig(a)
    assert np.allclose(res.eigenvalues, [-2.0, 0.5], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_sym_eig_matches_numpy(n):
    # numpy's LAPACK solver behind sym_eig against the Jacobi reference
    rng = np.random.default_rng(2024 + n)
    for _ in range(50):
        a = random_symmetric(rng, n)
        res, ref = sym_eig(a), jacobi_sym_eig(a)
        assert np.allclose(res.eigenvalues, ref.eigenvalues, atol=1e-10)
        # distinct eigenvalues: the sign-normalized eigenvectors agree too
        assert np.allclose(res.eigenvectors, ref.eigenvectors, atol=1e-8)


def test_sym_eig_reconstruction_and_orthogonality_bounds():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = random_symmetric(rng, n) * float(rng.uniform(0.1, 100.0))
        res = sym_eig(a)
        scale = max(1.0, frobenius(a))
        assert frobenius(res.reconstruct() - a) <= 1e-10 * scale
        q = res.eigenvectors
        assert frobenius(q.T @ q - np.eye(n)) <= 1e-10
        assert np.all(np.diff(res.eigenvalues) >= -1e-14)


def test_sym_eig_deterministic():
    rng = np.random.default_rng(11)
    a = random_symmetric(rng, 6)
    r1, r2 = sym_eig(a), sym_eig(a)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


def norm_rule_symmetric(a, name="matrix"):
    """Reference for as_square_symmetric: the norm rule on every input, with
    no shortcut for an exact match."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    a_t = np.swapaxes(a, -1, -2)
    scale = np.linalg.norm(a, axis=(-2, -1))
    if np.any(np.linalg.norm(a - a_t, axis=(-2, -1)) > SYMMETRY_TOL * np.maximum(1.0, scale)):
        raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL} of its scale")
    return (a + a_t) / 2.0


def outcome(validate, a):
    try:
        out = validate(a, "m")
    except ValueError as exc:
        return "error", str(exc)
    return out.shape, out.tobytes()


@st.composite
def near_symmetric_stacks(draw):
    """Exactly symmetric stacks, then one entry of one matrix moved so that
    its asymmetry ||A - A^T||_F lands near SYMMETRY_TOL * max(1, ||A||_F)."""
    n = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    elements = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300, 1e150])
    half = draw(hnp.arrays(float, lead + (n, n), elements=elements))
    a = np.triu(half) + np.swapaxes(np.triu(half, 1), -1, -2)
    if n > 1 and draw(st.booleans()):
        where = draw(st.tuples(*(st.integers(0, k - 1) for k in lead))) if lead else ()
        target = a[where]
        # a[i, j] + d has asymmetry sqrt(2) |d| in the Frobenius norm
        ratio = draw(st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]) | st.floats(0.0, 3.0))
        bound = SYMMETRY_TOL * max(1.0, np.linalg.norm(target))
        target[0, n - 1] += draw(st.sampled_from([1.0, -1.0])) * ratio * bound / math.sqrt(2.0)
    return a


@settings(max_examples=400, deadline=None)
@given(near_symmetric_stacks() | hnp.arrays(
    float, hnp.array_shapes(min_dims=1, max_dims=4, max_side=3),
    elements=st.floats(allow_infinity=True, allow_nan=True)))
def test_as_square_symmetric_follows_the_norm_rule(a):
    # the same bytes, or the same ValueError, as the rule without the shortcut
    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome(as_square_symmetric, a) == outcome(norm_rule_symmetric, a)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sym_eig([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sym_eig([[0.0, 1.0], [0.0, 0.0]])


def test_gen_sym_eig_scalar_ratio():
    assert np.allclose(gen_sym_eig([[-8.0]], [[2.0]]), [-4.0])


def test_gen_sym_eig_identity_weight():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 4)
    assert np.allclose(gen_sym_eig(2 * a, np.eye(4)), np.linalg.eigvalsh(2 * a), atol=1e-10)


def test_gen_sym_eig_reduced_scalar_block():
    # scalar instance: S = P~ A~ + A~^T P~ with A~ = -2 gives ratio -4
    p = np.array([[1.4162]])
    s = p * (-2.0) + (-2.0) * p
    assert np.allclose(gen_sym_eig(s, p), [-4.0])


def test_gen_sym_eig_matches_inverse_sqrt_form():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        s = random_symmetric(rng, n)
        b = rng.standard_normal((n, n))
        p = b @ b.T + n * np.eye(n)
        p_inv_sqrt = jacobi_inverse_sqrt(p)
        m = p_inv_sqrt @ s @ p_inv_sqrt
        expected = jacobi_sym_eig((m + m.T) / 2.0).eigenvalues
        assert np.allclose(gen_sym_eig(s, p), expected, atol=1e-8)


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gen_sym_eig_stack_equals_each_matrix_alone(h, m, seed):
    rng = np.random.default_rng(seed)
    p = random_spd(rng, h)
    stack = np.stack([random_symmetric(rng, h) for _ in range(m)])
    batched = gen_sym_eig(stack, p)
    assert batched.shape == (m, h)
    for k in range(m):
        assert np.array_equal(batched[k], gen_sym_eig(stack[k], p))


def reference_gen_sym_eig(s, p) -> np.ndarray:
    # gen_sym_eig with both triangular solves broadcast over the stack, one
    # right-hand side matrix at a time
    s = as_square_symmetric(s)
    lower = cholesky(p)
    x = np.linalg.solve(lower, s)
    m = np.swapaxes(np.linalg.solve(lower, np.swapaxes(x, -1, -2)), -1, -2)
    return np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2)) / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 40), st.sampled_from([1e-3, 1.0, 1e3]),
       st.integers(0, 2**32 - 1))
def test_gen_sym_eig_equals_the_broadcast_solve(h, m, scale, seed):
    rng = np.random.default_rng(seed)
    p = random_spd(rng, h) * rng.uniform(0.1, 10.0)
    stack = np.stack([scale * random_symmetric(rng, h) for _ in range(m)])
    assert np.array_equal(gen_sym_eig(stack, p), reference_gen_sym_eig(stack, p))
    assert np.array_equal(gen_sym_eig(stack[0], p), reference_gen_sym_eig(stack[0], p))


def jacobi_log_seminorm(w, a) -> float:
    # Per-matrix reference: top eigenvalue of R^-1/2 (R A11 + A11^T R) R^-1/2 / 2.
    a11 = w.subspace.basis.T @ a @ w.subspace.basis
    lhs = w.reduced @ a11 + a11.T @ w.reduced
    r_inv_sqrt = jacobi_inverse_sqrt(w.reduced)
    m = r_inv_sqrt @ lhs @ r_inv_sqrt / 2.0
    return float(jacobi_sym_eig((m + m.T) / 2.0).eigenvalues[-1])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_log_seminorm_stack_matches_jacobi_reduction(h, extra, m, seed):
    n = min(h + extra, 6)
    rng = np.random.default_rng(seed)
    s = orthonormalize(rng.standard_normal((h, n)), ambient=n)
    w = reduce_weight(s.basis @ random_spd(rng, h) @ s.basis.T, s)
    stack = rng.uniform(-10.0, 10.0, (m, n, n))
    values = log_seminorm(w, stack)
    assert values.shape == (m,)
    for k in range(m):
        expected = jacobi_log_seminorm(w, stack[k])
        assert abs(values[k] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_gen_sym_eig_rejects_indefinite_weight():
    with pytest.raises(NotPositiveDefiniteError):
        gen_sym_eig(np.eye(2), [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        gen_sym_eig(np.eye(2), np.eye(3))


def test_psd_check_examples():
    assert psd_check(np.eye(2), tol=0.0)
    assert psd_check([[0.0, 0.0], [0.0, -1e-15]], tol=1e-9)
    # closed-form 2x2 eigenvalues of [[1,2],[2,1]] are {-1, 3}
    assert not psd_check([[1.0, 2.0], [2.0, 1.0]], tol=1e-9)


def test_psd_check_invariant_under_orthogonal_congruence():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = random_symmetric(rng, n)
        q = random_orthogonal(rng, n)
        rotated = q @ m @ q.T
        assert psd_check(m) == psd_check((rotated + rotated.T) / 2.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), st.integers(0, 2**32 - 1))
def test_psd_check_stack_equals_each_matrix_alone(n, rows, cols, tol, seed):
    rng = np.random.default_rng(seed)
    stack = np.empty((rows, cols, n, n))
    for i in range(rows):
        for j in range(cols):
            m = random_symmetric(rng, n)
            # shift lambda_min to about 0 or to either side of the tolerance
            lam = np.linalg.eigvalsh(m)[0]
            shift = float(rng.choice([0.0, 0.5, 1.0, 2.0])) * tol * max(1.0, frobenius(m))
            stack[i, j] = m - (lam + shift) * np.eye(n)
    verdicts = psd_check(stack, tol)
    assert verdicts.shape == (rows, cols) and verdicts.dtype == bool
    assert verdicts.tolist() == [[psd_check(stack[i, j], tol) for j in range(cols)]
                                 for i in range(rows)]
    assert isinstance(psd_check(stack[0, 0], tol), bool)


def test_cholesky_examples():
    assert np.allclose(cholesky(np.eye(3)), np.eye(3))
    assert np.allclose(cholesky([[4.0]]), [[2.0]])
    expected = np.array([[math.sqrt(2.0), 0.0], [1.0 / math.sqrt(2.0), math.sqrt(1.5)]])
    assert np.allclose(cholesky([[2.0, 1.0], [1.0, 2.0]]), expected, atol=1e-12)


def test_cholesky_reconstructs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        b = rng.standard_normal((n, n))
        p = b @ b.T + 0.5 * np.eye(n)
        lower = cholesky(p)
        assert np.allclose(np.tril(lower), lower)
        assert frobenius(lower @ lower.T - p) <= 1e-10 * max(1.0, frobenius(p))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky([[1.0, 2.0], [2.0, 1.0]])

