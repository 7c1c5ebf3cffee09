"""Switched-system model: modes with symbolic Jacobians, box domains, sampling."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .expr import (
    Expr,
    EvaluationError,
    differentiate,
    evaluate_checked,
    parse_expr,
    to_python_statements,
)


# Residual below which a candidate basis vector is dropped as dependent.
RANK_TOL = 1e-10


class ConfigError(ValueError):
    """Invalid system configuration document."""


@dataclass(frozen=True)
class Mode:
    """One mode of the switched system: vector field plus symbolic Jacobian."""

    id: int
    field_exprs: tuple[Expr, ...]
    jacobian_exprs: tuple[tuple[Expr, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.field_exprs)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash, taken once: the compiled kernels are looked up
        # by mode on every call, and hashing walks every expression tree
        return hash((self.id, self.field_exprs, self.jacobian_exprs))


def make_mode(mode_id: int, field_exprs) -> Mode:
    """Build a mode, differentiating the field symbolically."""
    if mode_id < 1:
        raise ValueError("mode ids are positive integers")
    exprs = tuple(field_exprs)
    n = len(exprs)
    jac = tuple(
        tuple(differentiate(exprs[i], j + 1) for j in range(n)) for i in range(n)
    )
    return Mode(mode_id, exprs, jac)


def eval_jacobian(mode: Mode, x) -> np.ndarray:
    """Jacobian at a point, shape (n, n); for a batch (m, n) returns (m, n, n).

    Runs the mode's compiled numpy Jacobian (_jacobian_kernel), which gives
    the AST evaluator's bits. When its stack is not finite, or a constant-only
    division by zero raises on Python floats, the AST evaluator (the
    reference) evaluates the points again, so that EvaluationError names the
    first non-finite subexpression of the first non-finite entry.
    """
    x = _check_point(x, mode.dimension)
    try:
        jac = _jacobian_kernel(mode)(x)
        if np.all(np.isfinite(jac)):
            return jac
    except ZeroDivisionError:
        pass
    return np.stack([np.stack([np.broadcast_to(evaluate_checked(e, x), x.shape[:-1])
                               for e in row], axis=-1) for row in mode.jacobian_exprs], axis=-2)


@lru_cache(maxsize=128)
def _jacobian_kernel(mode: Mode):
    """jacobian(x): the mode's Jacobian at the points x (..., n) as one array
    (..., n, n), from the CSE'd numpy rendering of its entries under the
    errstate of Div and Pow; compiled on first use."""
    n = mode.dimension
    body = to_python_statements([e for row in mode.jacobian_exprs for e in row],
                                [f"out[..., {r}, {c}]" for r in range(n) for c in range(n)],
                                "x{}", numpy=True)
    source = "\n".join([
        "def jacobian(x):",
        *(f"    x{i} = x[..., {i}]" for i in range(n)),
        f"    out = np.empty(x.shape[:-1] + ({n}, {n}))",
        '    with np.errstate(divide="ignore", invalid="ignore"):',
        *("        " + line for line in body),
        "    return out",
    ])
    namespace = {"np": np, "math": math}
    exec(source, namespace)
    return namespace["jacobian"]


def _check_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise ValueError(f"point has dimension {x.shape[-1]}, expected {n}")
    if not np.all(np.isfinite(x)):
        raise EvaluationError("evaluation point is not finite")
    return x


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with per-axis [lo, hi]."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have the same length")
        for lo, hi in zip(self.lows, self.highs):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"empty or unbounded axis [{lo}, {hi}]")

    @property
    def dimension(self) -> int:
        return len(self.lows)

    def first_outside(self, points, slack: float = 1e-12) -> int | None:
        """Index of the first point (row) outside the box widened by `slack`,
        or None; a non-finite coordinate counts as outside."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lows) - slack
        hi = np.asarray(self.highs) + slack
        outside = ~np.all((points >= lo) & (points <= hi), axis=1)
        return int(np.argmax(outside)) if outside.any() else None


@dataclass(frozen=True)
class SwitchedSystem:
    dimension: int
    modes: tuple[Mode, ...]
    domain: Box

    def __post_init__(self):
        ids = [m.id for m in self.modes]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"mode ids must be 1..M without gaps, got {ids}")
        for m in self.modes:
            if m.dimension != self.dimension:
                raise ValueError(f"mode {m.id} has dimension {m.dimension}, expected {self.dimension}")
        if self.domain.dimension != self.dimension:
            raise ValueError("domain dimension mismatch")

    def mode(self, mode_id: int) -> Mode:
        try:
            return self.modes[mode_id - 1]
        except IndexError:
            raise KeyError(f"unknown mode id {mode_id}") from None


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Finite point set standing in for 'for all x in D' checks. It keeps the
    arrays computed over its points, read-only and keyed by content, and does
    not recompute them if the points change in place; dataclasses.replace
    gives a set over the same points with none computed."""

    points: np.ndarray  # (m, n)
    scheme: dict
    _arrays: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return self.points.shape[0]

    def computed(self, key, compute) -> np.ndarray:
        """The array stored under key, from compute() on the first request."""
        value = self._arrays.get(key)
        if value is None:
            value = self._arrays[key] = compute()
            value.flags.writeable = False
        return value

    def jacobians(self, mode: Mode) -> np.ndarray:
        """The mode's Jacobian at every point, (m, n, n)."""
        return self.computed((mode,), lambda: eval_jacobian(mode, self.points))


def sample_domain(system: SwitchedSystem, grid_per_axis: int = 0,
                  random_count: int = 0, seed: int = 0) -> SampleSet:
    """Uniform grid plus seeded uniform random points inside the domain."""
    if grid_per_axis < 2 and random_count < 1:
        raise ValueError("request a grid of at least 2 per axis or at least 1 random point")
    box = system.domain
    chunks = []
    if grid_per_axis >= 2:
        axes = [np.linspace(lo, hi, grid_per_axis) for lo, hi in zip(box.lows, box.highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        chunks.append(np.stack([m.ravel() for m in mesh], axis=-1))
    if random_count >= 1:
        rng = np.random.default_rng(seed)
        lo = np.asarray(box.lows)
        hi = np.asarray(box.highs)
        chunks.append(lo + (hi - lo) * rng.random((random_count, box.dimension)))
    points = np.concatenate(chunks, axis=0)
    scheme = {"grid_per_axis": grid_per_axis, "random_count": random_count, "seed": seed}
    return SampleSet(points, scheme)


@dataclass(frozen=True)
class SubspaceSpec:
    name: str
    span: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class CertificateSpec:
    subspace: str
    weights: dict  # mode id -> (n, n) array; empty when weights are to be searched
    beta_stable: float | None = None
    beta_unstable: float | None = None
    eta_stable: float | None = None
    eta_unstable: float | None = None


@dataclass(frozen=True)
class ConfigBundle:
    system: SwitchedSystem
    subspaces: tuple[SubspaceSpec, ...]
    certificates: tuple[CertificateSpec, ...]
    raw: dict


def load_config(source) -> ConfigBundle:
    """Load a system configuration from a path, JSON string, or dict."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        try:
            if Path(text).exists():
                text = Path(text).read_text(encoding="utf-8")
        except OSError:
            pass
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    try:
        n = int(doc["dimension"])
        domain = Box(
            tuple(float(lo) for lo, _ in doc["domain"]),
            tuple(float(hi) for _, hi in doc["domain"]),
        )
        modes = []
        for entry in doc["modes"]:
            exprs = [parse_expr(text, n) for text in entry["field"]]
            if len(exprs) != n:
                raise ConfigError(
                    f"mode {entry['id']} has {len(exprs)} field components, expected {n}"
                )
            modes.append(make_mode(int(entry["id"]), exprs))
        if not modes:
            raise ConfigError("configuration declares no modes")
        modes.sort(key=lambda m: m.id)
        system = SwitchedSystem(n, tuple(modes), domain)
        subspaces = []
        for entry in doc.get("subspaces", []):
            name = str(entry["name"])
            span = tuple(tuple(float(v) for v in vec) for vec in entry["span"])
            if any(len(vec) != n for vec in span):
                raise ConfigError(f"subspace {name!r} span vectors must have length {n}")
            if max(map(np.linalg.norm, span), default=0.0) < RANK_TOL:
                raise ConfigError(f"subspace {name!r} has a numerically zero span")
            subspaces.append(SubspaceSpec(name, span))
        certificates = [CertificateSpec(
            subspace=str(entry["subspace"]),
            weights={int(key): np.asarray(matrix, dtype=float)
                     for key, matrix in entry.get("P", {}).items()},
            beta_stable=_opt_float(entry, "beta_S"),
            beta_unstable=_opt_float(entry, "beta_U"),
            eta_stable=_opt_abs_float(entry, "eta_S"),
            eta_unstable=_opt_abs_float(entry, "eta_U"),
        ) for entry in doc.get("certificates", [])]
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc
    names = [spec.name for spec in subspaces]
    targets = [spec.subspace for spec in certificates]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"two subspaces are named {name!r}")
    for name in targets:
        if name not in names:
            raise ConfigError(f"a certificate names the unknown subspace {name!r}")
        if targets.count(name) > 1:
            raise ConfigError(f"subspace {name!r} has two certificates")
    return ConfigBundle(system, tuple(subspaces), tuple(certificates), doc)


def _opt_float(entry: dict, key: str):
    return float(entry[key]) if key in entry and entry[key] is not None else None


def _opt_abs_float(entry: dict, key: str):
    # Rate constants are stored positive; accept either sign convention.
    value = _opt_float(entry, key)
    return abs(value) if value is not None else None
