"""Hybrid integration of the switched flow and its variational system,
exponential rate fits, and the trajectory-pair experiment with its trace
files.

Fixed-step RK4 with switch-aligned substeps: deterministic, reproducible, and
the convergence order is trivially testable. The last step of every
constant-mode segment is shortened to land exactly on the switch time. The
flow and the variational system step through RK4 kernels generated per mode
from one stage template, with shared subexpressions of the field or the
Jacobian computed once, and run on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .certificates import DwellBounds
from .expr import to_python_statements
from .ioutil import atomic_write_text
from .signals import SwitchingSignal, verify_per_activation, write_signal_csv
from .subspaces import projector
from .svgplot import write_line_plot
from .system import Mode, SwitchedSystem


# Largest state difference at the signal boundaries between a run and its
# half-step rerun that validates the run.
HALVING_BOUND = 1e-6
# Rows of a trace CSV formatted and written at a time.
CSV_BLOCK_ROWS = 4096


class DivergenceError(RuntimeError):
    """State became non-finite; carries the first bad time."""

    def __init__(self, time: float):
        super().__init__(f"state diverged (non-finite) at t = {time:.6g}")
        self.time = time


class RateWindowError(ValueError):
    """A rate-fit window holds fewer than 3 samples."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A flow or variational run under a signal: times[boundaries] equals the
    signal's boundaries exactly."""

    times: np.ndarray       # (m,), strictly increasing
    states: np.ndarray      # (m, n)
    boundaries: np.ndarray  # sample index of each signal boundary


def _segment_steps(t0: float, t1: float, step: float) -> int:
    # the count of fixed steps of `step` over [t0, t1], the final one
    # shortened to land exactly on t1
    n_full = int(math.floor((t1 - t0) / step + 1e-9))
    return n_full + (t1 - (t0 + n_full * step) > 1e-12)


def _ieee_step(step, args, t_next):
    # Python floats raise where numpy float64 scalars give inf or nan (x/0.0,
    # 0.0**-1, float ** overflow); redo the step on numpy scalars, which a
    # saturating function (tanh, exp(-.)) can bring back to a finite state.
    # An error that numpy scalars raise too (math.exp overflow, math.sin of an
    # infinity) is divergence.
    with np.errstate(all="ignore"):
        try:
            return tuple(map(float, step(*map(np.float64, args))))
        except (OverflowError, ZeroDivisionError, ValueError):
            raise DivergenceError(t_next) from None


def _jacobian_statements(mode: Mode) -> list[str]:
    # j{r}_{c} = d f_r / d x_c at the point p0..
    n = mode.dimension
    return to_python_statements([e for row in mode.jacobian_exprs for e in row],
                                [f"j{r}_{c}" for r in range(n) for c in range(n)], "p{}")


def _rk4_source(mode: Mode, variational: bool = False) -> str:
    """Source of kernel(x, times): RK4 on Python floats over one constant-mode
    segment, stepping the state x from times[0] through times[1:] and
    returning the states at times[1:] as one flat list. The variational
    kernel(x, times, points) steps y' = J(p(t)) y instead, with
    p = (1.0 - w) * pa + w * pb, w = (t - t_prev) / h, between the stored
    trajectory points pa, pb at the ends of the step, and J(p) y summed left
    to right. Shared subexpressions of the field or the Jacobian are computed
    once. The stages keep the operation order of the ndarray RK4 step (the
    tests' oracle), and Python floats round like numpy float64 scalars. A
    step that raises on Python floats is redone on numpy scalars
    (_ieee_step), as the ndarray path computed it. A non-finite state raises
    DivergenceError at the step's end time."""
    n = mode.dimension

    def each(line):
        return [line.format(i=i) for i in range(n)]

    if variational:
        jacobian = _jacobian_statements(mode)

        def stage(k, var, t):
            # p and J(p) change with the stage time only (t is None when it repeats)
            point = [f"w = 0.0 if h == 0 else ({t} - t_prev) / h",
                     *each("p{i} = (1.0 - w) * pa{i} + w * pb{i}"), *jacobian] if t else []
            return point + [f"{k}{r} = " + " + ".join(f"j{r}_{c} * {var.format(c)}"
                                                      for c in range(n)) for r in range(n)]
    else:
        def stage(k, var, t):
            return to_python_statements(mode.field_exprs, each(k + "{i}"), var)

    state = "".join(each("x{i}, "))
    pa, pb = "".join(each("pa{i}, ")), "".join(each("pb{i}, "))
    args = state + (pa + pb if variational else "") + "t_prev, h"
    update = "".join(each("x{i} + h6 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i}), "))
    # x is only reassigned once all four stages have been evaluated
    step = ["h2 = h / 2.0", "h6 = h / 6.0",
            *stage("a", "x{}", "t_prev"), *each("y{i} = x{i} + h2 * a{i}"),
            *stage("b", "y{}", "t_prev + h2"), *each("y{i} = x{i} + h2 * b{i}"),
            *stage("c", "y{}", None), *each("y{i} = x{i} + h * c{i}"),
            *stage("d", "y{}", "t_prev + h"),
            f"{state}= {update}"]
    return "\n".join([
        f"def step({args}):",
        *("    " + line for line in step),
        f"    return {state}",
        f"def kernel(x, times{', points' if variational else ''}):",
        f"    {state}= x",
        "    out = []",
        "    t_prev = times[0]",
        f"    for t_next, ({pa}), ({pb}) in zip(times[1:], points, points[1:]):"
        if variational else "    for t_next in times[1:]:",
        "        h = t_next - t_prev",
        "        try:",
        *("            " + line for line in step),
        "        except (OverflowError, ZeroDivisionError, ValueError):",
        f"            {state}= ieee_step(step, ({args}), t_next)",
        f"        if not ({' and '.join(each('isfinite(x{i})'))}):",
        "            raise DivergenceError(t_next)",
        f"        out += {state}",
        "        t_prev = t_next",
        "    return out",
    ])


@lru_cache(maxsize=128)
def _rk4_kernel(mode: Mode, variational: bool = False):
    """The compiled kernel of _rk4_source."""
    namespace = {"math": math, "isfinite": math.isfinite, "ieee_step": _ieee_step,
                 "DivergenceError": DivergenceError}
    exec(_rk4_source(mode, variational), namespace)
    return namespace["kernel"]


def integrate(system: SwitchedSystem, sig: SwitchingSignal, x0, step: float) -> Trajectory:
    """Integrate the switched flow over the whole signal; state is continuous
    across switches."""
    if step <= 0:
        raise ValueError("step must be positive")
    n = system.dimension
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"initial state has shape {x0.shape}, expected ({n},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    kernels = {m: _rk4_kernel(system.mode(m)) for m in sig.modes}
    segments = [(seg_start, seg_end, mode_id, _segment_steps(seg_start, seg_end, step))
                for (seg_start, mode_id), seg_end in zip(sig.events, sig.boundaries[1:])]
    boundaries = np.cumsum([0] + [steps for *_, steps in segments])
    # each segment's kernel output goes straight into its slice of the arrays
    times = np.empty(boundaries[-1] + 1)
    states = np.empty((len(times), n))
    flat = states.reshape(-1)
    times[0], states[0] = sig.start_time, x0
    x = x0.tolist()
    for (seg_start, seg_end, mode_id, steps), k0 in zip(segments, boundaries):
        # the step times after seg_start end exactly on seg_end
        seg_times = [seg_start + k * step for k in range(steps)] + [seg_end]
        out = kernels[mode_id](x, seg_times)
        times[k0 + 1:k0 + steps + 1] = seg_times[1:]
        flat[(k0 + 1) * n:(k0 + steps + 1) * n] = out
        x = out[-n:] or x
    return Trajectory(times, states, boundaries)


def integrate_variational(system: SwitchedSystem, sig: SwitchingSignal,
                          x_traj: Trajectory, y0) -> Trajectory:
    """Co-integrate the perturbation dynamics y' = A(x(t)) y along a stored
    trajectory of the signal, interpolating x linearly inside each step."""
    n = system.dimension
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (n,):
        raise ValueError(f"initial perturbation has shape {y0.shape}, expected ({n},)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial perturbation must be finite")
    cuts = x_traj.boundaries.tolist()
    # each segment fills its rows, the last one the trajectory's last row
    if len(cuts) != len(sig.boundaries):
        raise ValueError(f"trajectory has {len(cuts)} signal boundaries, "
                         f"the signal {len(sig.boundaries)}")
    states = np.empty_like(x_traj.states)
    flat = states.reshape(-1)
    states[0] = y0
    y = y0.tolist()
    for (_, mode_id), k0, k1 in zip(sig.events, cuts, cuts[1:]):
        kernel = _rk4_kernel(system.mode(mode_id), True)
        out = kernel(y, x_traj.times[k0:k1 + 1].tolist(), x_traj.states[k0:k1 + 1].tolist())
        flat[(k0 + 1) * n:(k1 + 1) * n] = out
        y = out[-n:] or y
    return Trajectory(x_traj.times.copy(), states, x_traj.boundaries)


def distance_trace(a: Trajectory, b: Trajectory) -> np.ndarray:
    """Pointwise distance between two trajectories on the same time grid."""
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times, atol=1e-9):
        raise ValueError("trajectories are on different time grids")
    return np.linalg.norm(a.states - b.states, axis=1)


@dataclass(frozen=True)
class RateFit:
    rate: float        # decay rate (positive = decaying), 1/s
    prefactor: float   # value of the fitted exponential at the window start
    rmse: float        # residual of the log-linear fit
    window: tuple
    floored_points: int  # samples clamped at the positivity floor


def fit_rate(times, values, window: tuple) -> RateFit:
    """Least-squares exponential fit on a window: slope of ln(values) vs time."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_a, t_b = window
    mask = (times >= t_a - 1e-12) & (times <= t_b + 1e-12)
    t = times[mask]
    v = values[mask]
    if t.size < 3:
        raise RateWindowError(f"need at least 3 samples in the window, got {t.size}")
    floored = int(np.sum(v < 1e-300))
    logs = np.log(np.maximum(v, 1e-300))
    design = np.stack([t - t[0], np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    residual = design @ coef - logs
    rmse = float(np.sqrt(np.mean(residual**2)))
    return RateFit(-slope, math.exp(intercept), rmse, (float(t_a), float(t_b)), floored)


def _halving_difference(coarse: Trajectory, fine: Trajectory) -> float:
    # worst state difference at segment boundaries between a run and its
    # half-step rerun
    return float(np.max(np.abs(coarse.states[coarse.boundaries] - fine.states[fine.boundaries])))


def step_halving_agreement(system: SwitchedSystem, sig: SwitchingSignal, x0,
                           step: float) -> float:
    """Worst state difference at segment boundaries between runs at `step` and
    `step/2` - the validation oracle behind every reported simulation."""
    coarse = integrate(system, sig, x0, step)
    return _halving_difference(coarse, integrate(system, sig, x0, step / 2.0))


def run_simulation(bundle, sig, x_a0, x_b0, step: float,
                   bounds: DwellBounds | None) -> tuple[dict, dict | None]:
    """Integrate a trajectory pair, validate it by step halving and against the
    domain box, and measure distance (rate fitted on the last 80 % of the run,
    from t0 + 0.2 (T - t0)) and projected distances on the bundle's subspaces.
    Returns the result and the traces for write_traces, None for a diverging run."""
    system = bundle.system
    try:
        traj_a = integrate(system, sig, x_a0, step)
        traj_b = integrate(system, sig, x_b0, step)
        agreement = max(
            _halving_difference(traj_a, integrate(system, sig, x_a0, step / 2.0)),
            _halving_difference(traj_b, integrate(system, sig, x_b0, step / 2.0)),
        )
    except DivergenceError as exc:
        return {"verdicts": [{"name": "finite_trajectories", "ok": False}],
                "divergence_time": exc.time}, None
    exits = [(float(traj.times[k]), label)
             for label, traj in (("a", traj_a), ("b", traj_b))
             if (k := system.domain.first_outside(traj.states)) is not None]
    result: dict = {
        "verdicts": [{"name": "step_halving_agreement", "ok": bool(agreement < HALVING_BOUND)},
                     {"name": "finite_trajectories", "ok": True},
                     {"name": "trajectories_within_domain", "ok": not exits}],
        "step_halving": {"worst_difference": agreement, "bound": HALVING_BOUND},
    }
    if exits:
        # the certificate only holds on the domain box: report the first exit
        t_exit, label = min(exits)
        result["domain_exit"] = {"trajectory": label, "time": t_exit}
    distance = distance_trace(traj_a, traj_b)
    result["initial_distance"] = float(distance[0])
    result["terminal_distance"] = float(distance[-1])
    result["distance_ratio"] = float(distance[-1] / distance[0])
    envelope = result["envelope_at_switches"] = distance[traj_a.boundaries].tolist()
    result["envelope_monotone"] = bool(
        all(b <= a * (1 + 1e-9) for a, b in zip(envelope, envelope[1:]))
    )
    t0, t_end = float(traj_a.times[0]), float(traj_a.times[-1])
    fit = fit_rate(traj_a.times, distance, (t0 + 0.2 * (t_end - t0), t_end))
    result["rate_fit"] = {**asdict(fit), "window": list(fit.window)}
    if bounds is not None:
        check = verify_per_activation(sig, bounds)
        result["signal_within_bounds"] = {
            "ok": check.ok,
            "detail": check.reason if check.ok else (
                f"bounds violated by signal in mode {check.mode}, activation "
                f"{check.activation_index}: {check.reason}"
            ),
        }
        result["verdicts"].append({"name": "signal_within_bounds", "ok": bool(check.ok)})
    projections = {}
    for spec in bundle.subspaces:
        pi = projector(spec.subspace).matrix
        projections[spec.name] = np.linalg.norm((traj_a.states - traj_b.states) @ pi.T, axis=1)
    traces = {"times": traj_a.times, "a": traj_a.states, "b": traj_b.states,
              "distance": distance, "projections": projections}
    return result, traces


def _write_csv(path, header: str, *columns) -> None:
    # the rows of column_stack(columns), CSV_BLOCK_ROWS at a time, each block
    # one % over Python floats (never numpy scalars, whose repr differs)
    n = len(columns[0])

    def chunks():
        yield header + "\n"
        for start in range(0, n, CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
            row = ",".join(["%r"] * block.shape[1]) + "\n"
            yield row * len(block) % tuple(block.ravel().tolist())

    atomic_write_text(path, chunks())


def write_traces(out_dir: Path, sig, traces, plot: bool, title: str) -> None:
    """Write the trajectory pair, distance and signal CSVs of run_simulation's
    traces, and with `plot` their distance SVG."""
    times = traces["times"]
    n = traces["a"].shape[1]
    state_header = "time," + ",".join(f"x{i + 1}" for i in range(n))
    _write_csv(out_dir / "trajectory_a.csv", state_header, times, traces["a"])
    _write_csv(out_dir / "trajectory_b.csv", state_header, times, traces["b"])
    proj_names = sorted(traces["projections"])
    header = "time,norm_full" + "".join(f",norm_{name}" for name in proj_names)
    _write_csv(out_dir / "distance.csv", header, times, traces["distance"],
               *(traces["projections"][p] for p in proj_names))
    write_signal_csv(sig, out_dir / "signal.csv")
    if plot:
        series = [("|x_a - x_b|", times, traces["distance"])]
        for name in proj_names:
            series.append((f"projected onto {name}", times, traces["projections"][name]))
        write_line_plot(out_dir / "distance.svg", series, sig.switch_times, title)
