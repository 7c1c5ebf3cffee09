"""Subspace and projector algebra, seminorms, weighted logarithmic seminorms,
invariance and separating-family checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NotPositiveDefiniteError, frobenius, gen_sym_eig, sym_eig

# Residual below which a candidate basis vector is dropped as dependent.
RANK_TOL = 1e-10
# Relative bound on ||P (I - Pi)|| for a weight to share the subspace kernel.
KERNEL_TOL = 1e-8
# Relative residual up to which the complement counts as invariant under a mode.
INVARIANCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of R^n with an orthonormal basis."""

    ambient: int
    basis: np.ndarray  # (n, h), orthonormal columns spanning the subspace

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def orthonormalize(vectors, ambient: int | None = None) -> Subspace:
    """Modified Gram-Schmidt basis for span(vectors); ValueError on a vector
    of another length, a non-finite one, or an all-zero set."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if not vectors:
        raise ValueError("need at least one spanning vector")
    n = ambient if ambient is not None else vectors[0].shape[0]
    basis: list[np.ndarray] = []
    for v in vectors:
        if v.shape != (n,):
            raise ValueError(f"expected vectors of length {n}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"spanning vector {v.tolist()} is not finite")
        w = v.copy()
        for b in basis:
            w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm >= RANK_TOL * max(1.0, np.linalg.norm(v)):
            basis.append(w / norm)
    if not basis:
        raise ValueError("all spanning vectors are numerically zero")
    return Subspace(n, np.stack(basis, axis=1))


@dataclass(frozen=True, eq=False)
class Projector:
    """Symmetric idempotent matrix projecting onto the owning subspace."""

    matrix: np.ndarray
    subspace: Subspace


def projector(s: Subspace) -> Projector:
    return Projector(s.basis @ s.basis.T, s)


@dataclass(frozen=True, eq=False)
class WeightedSeminorm:
    """Positive-semidefinite weight whose kernel is the subspace complement,
    together with its positive-definite reduced block on the subspace.

    Its growth rates are read under rate_block: its own reduced block, as
    reduce_weight sets it, or the block of a weight it is a positive multiple
    of. A weight c P gives the seminorm of P scaled by sqrt(c), so both have
    the same log-seminorm."""

    weight: np.ndarray       # (n, n)
    subspace: Subspace
    reduced: np.ndarray      # (h, h), basis^T @ weight @ basis
    eigenvalues: np.ndarray  # (h,), the reduced block's, ascending
    rate_block: np.ndarray   # (h, h), reduced or reduced / c for some c > 0


def reduce_weight(p, s: Subspace) -> WeightedSeminorm:
    """Validate ker(P) = complement and form the reduced block on the subspace."""
    p = np.asarray(p, dtype=float)
    n = s.ambient
    if p.shape != (n, n):
        raise ValueError(f"weight must be {n}x{n}, got {p.shape}")
    p = (p + p.T) / 2.0
    scale = max(frobenius(p), 1e-300)
    # ||P (I - Pi)|| = ||P U|| for any orthonormal frame U of the complement
    leak = frobenius(p @ (np.eye(n) - s.basis @ s.basis.T))
    if leak > KERNEL_TOL * scale:
        raise ValueError(
            f"weight does not annihilate the complement (residual {leak:.3e}, "
            f"allowed {KERNEL_TOL * scale:.3e})"
        )
    reduced = s.basis.T @ p @ s.basis
    reduced = (reduced + reduced.T) / 2.0
    eigs = sym_eig(reduced).eigenvalues
    if eigs[0] <= 1e-12 * max(1.0, frobenius(reduced)):
        raise NotPositiveDefiniteError(
            f"reduced weight block is singular (lambda_min {eigs[0]:.3e})"
        )
    return WeightedSeminorm(p, s, reduced, eigs, reduced)


def seminorm_eval(proj: Projector, v) -> float:
    """||Pi v||_2 - zero exactly on the complement."""
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(proj.matrix @ v))


def log_seminorm(w: WeightedSeminorm, a):
    """Growth rate of the weighted seminorm along y' = A y: the smallest b with
    R A11 + A11^T R <= 2 b R on the reduced block R.

    A is one (n, n) matrix (returns a float) or a stack (m, n, n) (returns an
    (m,) array); a stack shares one factorization of R. It computes afresh
    on every call; certificates.growth_values runs the same two steps once
    per sample set, (subspace, mode) and rate block, so that a scalar
    multiple c Pi of Pi reads Pi's array.
    """
    a = np.asarray(a, dtype=float)
    n = w.subspace.ambient
    if a.ndim not in (2, 3) or a.shape[-2:] != (n, n):
        raise ValueError(f"expected {n}x{n} matrix or a stack of them, got {a.shape}")
    values = _reduced_growth(w.reduced, _project(w.subspace.basis, a))
    return float(values) if a.ndim == 2 else values


def _project(basis, a) -> np.ndarray:
    # A11 = B^T A B for one A or each A of a stack; it does not depend on the
    # weight. The bits of np.einsum("ia,...ij,jb->...ab", basis, a, basis):
    # its n^2 terms (B[i,a] A[i,j]) B[j,b], added in its row-major (i, j)
    # order onto +0.0, each term over the whole stack with the samples last
    # and in two buffers that serve every term; returned C-contiguous, as
    # einsum's result is
    n, h = basis.shape
    stack = np.moveaxis(a.reshape(-1, n, n), 0, -1).copy()
    out = np.zeros((h, h, stack.shape[-1]))
    half, term = np.empty((h, 1, stack.shape[-1])), np.empty(out.shape)
    left, right = basis[:, :, None, None], basis[:, None, :, None]
    for i in range(n):
        for j in range(n):
            np.multiply(left[i], stack[i, j], out=half)
            out += np.multiply(half, right[j], out=term)
    return np.ascontiguousarray(np.moveaxis(out, -1, 0)).reshape(a.shape[:-2] + (h, h))


def _reduced_growth(r, a11):
    # the smallest b with R A11 + A11^T R <= 2 b R, for one A11 or a stack
    if r.shape == (1, 1):
        return a11[..., 0, 0]
    lhs = r @ a11 + np.swapaxes(a11, -1, -2) @ r
    return gen_sym_eig(lhs, 2.0 * r)[..., -1]


@dataclass(frozen=True, eq=False)
class InvarianceResult:
    ok: bool
    worst_residual: float  # max over samples of residual / max(1, ||A(x)||_F)
    worst_point: np.ndarray
    tolerance: float


def check_invariance(mode, s: Subspace, samples) -> InvarianceResult:
    """Check the certificate hypothesis that the Jacobian leaves the complement
    of a subspace invariant at every sample:
    || Pi_V A(x) Pi_Vperp ||_F <= INVARIANCE_TOL * max(1, ||A(x)||_F).

    mode is a system Mode; the Jacobian stack is the SampleSet's one stack of it.
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    pi = s.basis @ s.basis.T
    jacs = samples.jacobians(mode)
    residuals = np.linalg.norm(pi @ jacs @ (np.eye(s.ambient) - pi), axis=(1, 2))
    scales = np.maximum(1.0, np.linalg.norm(jacs, axis=(1, 2)))
    ratios = residuals / scales
    worst = int(np.argmax(ratios))
    return InvarianceResult(bool(ratios[worst] <= INVARIANCE_TOL), float(ratios[worst]),
                            samples.points[worst], INVARIANCE_TOL)


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
