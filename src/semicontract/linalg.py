"""Dense symmetric eigenproblems and semidefinite tests.

Thin wrappers over numpy's LAPACK (`eigh`, `eigvalsh`, `cholesky`) that
validate and symmetrize their input. Problem sizes are tens at most; the
generalized eigenproblem also takes a stack of left-hand sides against one
weight, so a whole sample set costs one Cholesky, one triangular solve per
side over the whole stack and one batched eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default relative tolerance for semidefinite comparisons.
PSD_TOL = 1e-9
# Relative asymmetry accepted before symmetrizing.
SYMMETRY_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def as_square_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate and symmetrize a square matrix or a stack (..., n, n) of them;
    returns (A + A^T)/2."""
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


@dataclass(frozen=True)
class SymEigResult:
    """Eigendecomposition A = Q diag(w) Q^T with w ascending, Q orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q, w = self.eigenvectors, self.eigenvalues
        return q @ np.diag(w) @ q.T


def sym_eig(a) -> SymEigResult:
    """Eigendecomposition of a symmetric matrix. Each eigenvector's sign is
    fixed by its largest-magnitude entry (first on ties)."""
    a = as_square_symmetric(a, "sym_eig input")
    if a.ndim != 2:
        raise ValueError(f"sym_eig input must be one matrix, got shape {a.shape}")
    w, q = np.linalg.eigh(a)
    lead = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    return SymEigResult(w, np.where(lead < 0, -q, q))


def cholesky(p) -> np.ndarray:
    """Lower-triangular L with L L^T = P. Raises if P is not positive definite."""
    p = as_square_symmetric(p, "cholesky input")
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"cholesky failed: {exc}") from None


def gen_sym_eig(s, p) -> np.ndarray:
    """Ascending generalized eigenvalues of (S, P) for symmetric S, SPD P.

    S is one (h, h) matrix or a stack (m, h, h) sharing P; the result has the
    shape (h,) or (m, h). Reduced to ordinary symmetric problems through a
    single factorization P = L L^T: eig(L^-1 S L^-T).
    """
    s = as_square_symmetric(s, "gen_sym_eig S")
    p = as_square_symmetric(p, "gen_sym_eig P")
    if s.ndim not in (2, 3) or s.shape[-2:] != p.shape:
        raise ValueError(f"dimension mismatch: S is {s.shape}, P is {p.shape}")
    if np.linalg.eigvalsh(p)[0] <= 1e-12 * frobenius(p):
        raise NotPositiveDefiniteError("P is not positive definite at the working tolerance")
    lower = cholesky(p)
    x = _solve_each(lower, s)
    m = np.swapaxes(_solve_each(lower, np.swapaxes(x, -1, -2)), -1, -2)
    return np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2)) / 2.0)


def _solve_each(lower, s) -> np.ndarray:
    """L^-1 S for one S, or for each S_k of a stack (m, h, h) as one solve
    over the stack laid out as (h, m*h): for h >= 2 the same bits as solving
    each S_k alone, in one factorization. A stack of 1 x 1 blocks is solved
    block by block, where the one solve would not give the same bits."""
    h = lower.shape[0]
    if s.ndim == 2 or h == 1:
        return np.linalg.solve(lower, s)
    cols = np.linalg.solve(lower, s.transpose(1, 0, 2).reshape(h, -1))
    return cols.reshape(h, -1, h).transpose(1, 0, 2)


def psd_check(m, tol: float = PSD_TOL) -> bool:
    """True iff lambda_min(M) >= -tol * max(1, ||M||_F)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    m = as_square_symmetric(m, "psd_check input")
    if m.ndim != 2:
        raise ValueError(f"psd_check input must be one matrix, got shape {m.shape}")
    return bool(np.linalg.eigvalsh(m)[0] >= -tol * max(1.0, frobenius(m)))
