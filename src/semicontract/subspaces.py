"""Subspace and projector algebra, seminorms, weighted logarithmic seminorms,
invariance and separating-family checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NotPositiveDefiniteError, frobenius, gen_sym_eig, sym_eig
from .system import Mode, SampleSet, eval_jacobian

# Residual below which a candidate basis vector is dropped as dependent.
RANK_TOL = 1e-10
# Relative bound on ||P @ complement|| for a weight to share the subspace kernel.
KERNEL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of R^n with orthonormal basis and orthonormal complement basis."""

    ambient: int
    basis: np.ndarray       # (n, h), orthonormal columns spanning the subspace
    complement: np.ndarray  # (n, n-h), orthonormal columns spanning the orthogonal complement

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def transform(self) -> np.ndarray:
        """Orthogonal change of basis [basis | complement]."""
        return np.hstack([self.basis, self.complement])


def orthonormalize(vectors, ambient: int | None = None) -> Subspace:
    """Modified Gram-Schmidt basis for span(vectors) plus a deterministic
    complement completed from canonical vectors in index order."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if not vectors:
        raise ValueError("need at least one spanning vector")
    n = ambient if ambient is not None else vectors[0].shape[0]
    basis: list[np.ndarray] = []
    for v in vectors:
        if v.shape != (n,):
            raise ValueError(f"expected vectors of length {n}, got shape {v.shape}")
        w = v.copy()
        for b in basis:
            w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm >= RANK_TOL * max(1.0, np.linalg.norm(v)):
            basis.append(w / norm)
    if not basis:
        raise ValueError("all spanning vectors are numerically zero")
    complement: list[np.ndarray] = []
    for i in range(n):
        if len(basis) + len(complement) == n:
            break
        w = np.zeros(n)
        w[i] = 1.0
        for b in basis:
            w -= (b @ w) * b
        for b in complement:
            w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm >= RANK_TOL:
            complement.append(w / norm)
    v_mat = np.stack(basis, axis=1)
    u_mat = np.stack(complement, axis=1) if complement else np.zeros((n, 0))
    return Subspace(n, v_mat, u_mat)


@dataclass(frozen=True, eq=False)
class Projector:
    """Symmetric idempotent matrix projecting onto the owning subspace."""

    matrix: np.ndarray
    subspace: Subspace

    @property
    def complement_matrix(self) -> np.ndarray:
        return np.eye(self.subspace.ambient) - self.matrix


def projector(s: Subspace) -> Projector:
    return Projector(s.basis @ s.basis.T, s)


@dataclass(frozen=True, eq=False)
class WeightedSeminorm:
    """Positive-semidefinite weight whose kernel is the subspace complement,
    together with its positive-definite reduced block on the subspace."""

    weight: np.ndarray   # (n, n)
    subspace: Subspace
    reduced: np.ndarray  # (h, h), basis^T @ weight @ basis


def reduce_weight(p, s: Subspace) -> WeightedSeminorm:
    """Validate ker(P) = complement and form the reduced block on the subspace."""
    p = np.asarray(p, dtype=float)
    n = s.ambient
    if p.shape != (n, n):
        raise ValueError(f"weight must be {n}x{n}, got {p.shape}")
    p = (p + p.T) / 2.0
    scale = max(frobenius(p), 1e-300)
    if s.complement.shape[1] > 0:
        leak = frobenius(p @ s.complement)
        if leak > KERNEL_TOL * scale:
            raise ValueError(
                f"weight does not annihilate the complement (residual {leak:.3e}, "
                f"allowed {KERNEL_TOL * scale:.3e})"
            )
    reduced = s.basis.T @ p @ s.basis
    reduced = (reduced + reduced.T) / 2.0
    lam_min = sym_eig(reduced).eigenvalues[0]
    if lam_min <= 1e-12 * max(1.0, frobenius(reduced)):
        raise NotPositiveDefiniteError(
            f"reduced weight block is singular (lambda_min {lam_min:.3e})"
        )
    return WeightedSeminorm(p, s, reduced)


def seminorm_eval(proj: Projector, v) -> float:
    """||Pi v||_2 - zero exactly on the complement."""
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(proj.matrix @ v))


def weighted_seminorm_eval(w: WeightedSeminorm, v) -> float:
    """sqrt(v^T P v)."""
    v = np.asarray(v, dtype=float)
    quad = float(v @ w.weight @ v)
    if quad < -1e-12 * max(1.0, float(v @ v)) * max(1.0, frobenius(w.weight)):
        raise ValueError(f"negative quadratic form {quad:.3e}; weight is not PSD")
    return float(np.sqrt(max(quad, 0.0)))


def log_seminorm(w: WeightedSeminorm, a):
    """Growth rate of the weighted seminorm along y' = A y: the smallest b with
    R A11 + A11^T R <= 2 b R on the reduced block R.

    A is one (n, n) matrix (returns a float) or a stack (m, n, n) (returns an
    (m,) array); a stack shares one factorization of R.
    """
    a = np.asarray(a, dtype=float)
    n = w.subspace.ambient
    if a.ndim not in (2, 3) or a.shape[-2:] != (n, n):
        raise ValueError(f"expected {n}x{n} matrix or a stack of them, got {a.shape}")
    basis = w.subspace.basis
    a11 = np.einsum("ia,...ij,jb->...ab", basis, a, basis)
    if w.reduced.shape == (1, 1):
        values = a11[..., 0, 0]
    else:
        r = w.reduced
        lhs = r @ a11 + np.swapaxes(a11, -1, -2) @ r
        values = gen_sym_eig(lhs, 2.0 * r)[..., -1]
    return float(values) if a.ndim == 2 else values


@dataclass(frozen=True, eq=False)
class InvarianceResult:
    ok: bool
    worst_residual: float  # max over samples of residual / max(1, ||A(x)||_F)
    worst_point: np.ndarray


def check_invariance(mode: Mode, s: Subspace, samples: SampleSet,
                     tol: float = 1e-9) -> InvarianceResult:
    """Check the certificate hypothesis that the Jacobian leaves the complement
    of a subspace invariant at every sample:
    || Pi_V A(x) Pi_Vperp ||_F <= tol * max(1, ||A(x)||_F).
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    pi = s.basis @ s.basis.T
    jacs = eval_jacobian(mode, samples.points)  # (m, n, n)
    residuals = np.linalg.norm(pi @ jacs @ (np.eye(s.ambient) - pi), axis=(1, 2))
    scales = np.maximum(1.0, np.linalg.norm(jacs, axis=(1, 2)))
    ratios = residuals / scales
    worst = int(np.argmax(ratios))
    return InvarianceResult(bool(ratios[worst] <= tol), float(ratios[worst]),
                            samples.points[worst])


def check_separating(projectors) -> bool:
    """True iff the seminorm kernels intersect only at the origin:
    lambda_min(sum Pi_i^T Pi_i) > 1e-10."""
    projectors = list(projectors)
    if not projectors:
        raise ValueError("empty projector list")
    n = projectors[0].subspace.ambient
    total = np.zeros((n, n))
    for p in projectors:
        if p.matrix.shape != (n, n):
            raise ValueError("projectors must share the ambient dimension")
        total += p.matrix.T @ p.matrix
    return bool(sym_eig(total).eigenvalues[0] > 1e-10)
