"""Hybrid integration of the switched flow and its variational system,
projected seminorm traces, exponential rate fits, and the trajectory-pair
experiment with its trace files.

Fixed-step RK4 with switch-aligned substeps: deterministic, reproducible, and
the convergence order is trivially testable. The last step of every
constant-mode segment is shortened to land exactly on the switch time. The
flow steps through one RK4 kernel per mode, generated from its field and run
on Python floats; the variational system steps with the ndarray `_rk4_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .certificates import DwellBounds
from .expr import to_python_source
from .ioutil import atomic_write_text
from .signals import SwitchingSignal, verify_per_activation, write_signal_csv
from .subspaces import Projector, orthonormalize, projector
from .svgplot import write_line_plot
from .system import Mode, SwitchedSystem, compiled_jacobian


class DivergenceError(RuntimeError):
    """State became non-finite; carries the first bad time."""

    def __init__(self, time: float):
        super().__init__(f"state diverged (non-finite) at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray   # (m,), strictly increasing, includes every switch time once
    states: np.ndarray  # (m, n)
    signal: SwitchingSignal

    def state_at_index_of(self, t: float) -> np.ndarray:
        k = int(np.searchsorted(self.times, t))
        if k >= len(self.times) or abs(self.times[k] - t) > 1e-9:
            raise KeyError(f"time {t} is not a sample time")
        return self.states[k]


@dataclass(frozen=True, eq=False)
class VariationalTrace:
    times: np.ndarray
    states: np.ndarray  # (m, n) perturbation states


def _segments(sig: SwitchingSignal, t_end: float):
    out = []
    for k, (tk, mode) in enumerate(sig.events):
        seg_end = sig.events[k + 1][0] if k + 1 < len(sig.events) else sig.horizon
        seg_end = min(seg_end, t_end)
        if seg_end > tk + 1e-15:
            out.append((tk, seg_end, mode))
        if seg_end >= t_end:
            break
    return out


def _segment_steps(t0: float, t1: float, step: float):
    # fixed steps of `step`, final one shortened to land exactly on t1
    span = t1 - t0
    n_full = int(math.floor(span / step + 1e-9))
    times = [t0 + k * step for k in range(n_full + 1)]
    if t1 - times[-1] > 1e-12:
        times.append(t1)
    else:
        times[-1] = t1
    return times


def _rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + h / 2.0, x + h / 2.0 * k1)
    k3 = f(t + h / 2.0, x + h / 2.0 * k2)
    k4 = f(t + h, x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ieee_step(step, x, h, t_next):
    # Python floats raise where numpy float64 scalars give inf or nan (x/0.0,
    # 0.0**-1, float ** overflow); redo the step on numpy scalars, which a
    # saturating function (tanh, exp(-.)) can bring back to a finite state.
    # An error that numpy scalars raise too (math.exp overflow) is divergence.
    with np.errstate(all="ignore"):
        try:
            return tuple(map(float, step(*map(np.float64, x), h)))
        except (OverflowError, ZeroDivisionError):
            raise DivergenceError(t_next) from None


@lru_cache(maxsize=64)
def _rk4_kernel(mode: Mode):
    """RK4 over one constant-mode segment, generated from the mode's field:
    kernel(x, times) steps the state tuple x from times[0] through times[1:]
    on Python floats and returns the state tuple at each of times[1:].

    The stages keep _rk4_step's operation order, and Python floats round like
    numpy float64 scalars, so the states are bit-identical to stepping ndarrays.
    A step that raises on Python floats is redone on numpy scalars
    (_ieee_step), as the ndarray path computed it. A non-finite state raises
    DivergenceError at the step's end time."""
    n = mode.dimension

    def each(line):
        return [line.format(i=i) for i in range(n)]

    def field(k, var):
        return [f"{k}{i} = {to_python_source(e, var + '{}')}"
                for i, e in enumerate(mode.field_exprs)]

    state = "".join(each("x{i}, "))
    update = "".join(each("x{i} + h / 6.0 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i}), "))
    # x is only reassigned once all four stages have been evaluated
    step = [*field("a", "x"), *each("y{i} = x{i} + h / 2.0 * a{i}"),
            *field("b", "y"), *each("y{i} = x{i} + h / 2.0 * b{i}"),
            *field("c", "y"), *each("y{i} = x{i} + h * c{i}"),
            *field("d", "y"),
            f"{state}= {update}"]
    source = "\n".join([
        f"def step({state}h):",
        *("    " + line for line in step),
        f"    return {state}",
        "def kernel(x, times):",
        f"    {state}= x",
        "    out = []",
        "    t_prev = times[0]",
        "    for t_next in times[1:]:",
        "        h = t_next - t_prev",
        "        try:",
        *("            " + line for line in step),
        "        except (OverflowError, ZeroDivisionError):",
        f"            {state}= ieee_step(step, ({state}), h, t_next)",
        f"        if not ({' and '.join(each('isfinite(x{i})'))}):",
        "            raise DivergenceError(t_next)",
        f"        out.append(({state}))",
        "        t_prev = t_next",
        "    return out",
    ])
    namespace = {"math": math, "isfinite": math.isfinite, "ieee_step": _ieee_step,
                 "DivergenceError": DivergenceError}
    exec(source, namespace)
    return namespace["kernel"]


def integrate(system: SwitchedSystem, sig: SwitchingSignal, x0, step: float,
              t_end: float | None = None) -> Trajectory:
    """Integrate the switched flow; state is continuous across switches."""
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dimension,):
        raise ValueError(f"initial state has shape {x0.shape}, expected ({system.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    t_end = sig.horizon if t_end is None else t_end
    if t_end > sig.horizon + 1e-12:
        raise ValueError("signal does not cover the requested span")
    kernels = {m: _rk4_kernel(system.mode(m)) for m in sig.modes}
    times = [sig.start_time]
    states = [tuple(x0.tolist())]
    for seg_start, seg_end, mode_id in _segments(sig, t_end):
        seg_times = _segment_steps(seg_start, seg_end, step)
        states += kernels[mode_id](states[-1], seg_times)
        times += seg_times[1:]
    return Trajectory(np.array(times), np.array(states), sig)


def integrate_variational(system: SwitchedSystem, sig: SwitchingSignal,
                          x_traj: Trajectory, y0) -> VariationalTrace:
    """Co-integrate the perturbation dynamics y' = A(x(t)) y along a stored
    trajectory, interpolating x linearly inside each step."""
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial perturbation must be finite")
    times = x_traj.times
    states = x_traj.states
    y = y0
    out = [y0]
    mode_of = {t: m for t, m in sig.events}
    current = sig.events[0][1]
    jacobians = {m: compiled_jacobian(system.mode(m)) for m in sig.modes}
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

        y = _rk4_step(f, t0, y, h)
        if not np.all(np.isfinite(y)):
            raise DivergenceError(t1)
        out.append(y)
    return VariationalTrace(times.copy(), np.array(out))


def projected_trace(trace: VariationalTrace, proj: Projector) -> np.ndarray:
    """Pointwise seminorm ||Pi y(t)|| of a variational trace."""
    return np.linalg.norm(trace.states @ proj.matrix.T, axis=1)


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
        raise ValueError(f"need at least 3 samples in the window, got {t.size}")
    floored = int(np.sum(v < 1e-300))
    logs = np.log(np.maximum(v, 1e-300))
    design = np.stack([t - t[0], np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    residual = design @ coef - logs
    rmse = float(np.sqrt(np.mean(residual**2)))
    return RateFit(-slope, math.exp(intercept), rmse, (float(t_a), float(t_b)), floored)


def _halving_difference(sig: SwitchingSignal, coarse: Trajectory, fine: Trajectory) -> float:
    # worst state difference at segment boundaries between a run and its
    # half-step rerun
    checkpoints = [sig.start_time, *sig.switch_times, float(coarse.times[-1])]
    worst = 0.0
    for t in checkpoints:
        if t > coarse.times[-1] + 1e-12:
            break
        xa = coarse.state_at_index_of(t)
        xb = fine.state_at_index_of(t)
        worst = max(worst, float(np.max(np.abs(xa - xb))))
    return worst


def step_halving_agreement(system: SwitchedSystem, sig: SwitchingSignal, x0,
                           step: float, t_end: float | None = None) -> float:
    """Worst state difference at segment boundaries between runs at `step` and
    `step/2` - the validation oracle behind every reported simulation."""
    coarse = integrate(system, sig, x0, step, t_end)
    return _halving_difference(sig, coarse, integrate(system, sig, x0, step / 2.0, t_end))


def run_simulation(bundle, sig, x_a0, x_b0, step: float, subspace_specs,
                   bounds: DwellBounds | None, fit_window=None) -> dict:
    """Integrate a trajectory pair, validate it by step halving and against the
    domain box, and measure distance and per-subspace projected distances."""
    system = bundle.system
    try:
        traj_a = integrate(system, sig, x_a0, step)
        traj_b = integrate(system, sig, x_b0, step)
        agreement = max(
            _halving_difference(sig, traj_a, integrate(system, sig, x_a0, step / 2.0)),
            _halving_difference(sig, traj_b, integrate(system, sig, x_b0, step / 2.0)),
        )
    except DivergenceError as exc:
        return {"verdicts": [{"name": "finite_trajectories", "ok": False}],
                "divergence_time": exc.time}
    exits = [(float(traj.times[k]), label)
             for label, traj in (("a", traj_a), ("b", traj_b))
             if (k := system.domain.first_outside(traj.states)) is not None]
    result: dict = {
        "verdicts": [{"name": "step_halving_agreement", "ok": bool(agreement < 1e-6)},
                     {"name": "finite_trajectories", "ok": True},
                     {"name": "trajectories_within_domain", "ok": not exits}],
        "step_halving": {"worst_difference": agreement, "bound": 1e-6},
    }
    if exits:
        # the certificate only holds on the domain box: report the first exit
        t_exit, label = min(exits)
        result["domain_exit"] = {"trajectory": label, "time": t_exit}
    distance = distance_trace(traj_a, traj_b)
    result["initial_distance"] = float(distance[0])
    result["terminal_distance"] = float(distance[-1])
    result["distance_ratio"] = float(distance[-1] / distance[0])
    boundary_times = np.array([sig.start_time, *sig.switch_times, traj_a.times[-1]])
    idx = np.minimum(np.searchsorted(traj_a.times, boundary_times - 1e-12), len(distance) - 1)
    envelope = result["envelope_at_switches"] = distance[idx].tolist()
    result["envelope_monotone"] = bool(
        all(b <= a * (1 + 1e-9) for a, b in zip(envelope, envelope[1:]))
    )
    if fit_window is None:
        span = float(traj_a.times[-1])
        fit_window = (0.2 * span, span)
    fit = fit_rate(traj_a.times, distance, fit_window)
    result["rate_fit"] = {
        "rate": fit.rate,
        "prefactor": fit.prefactor,
        "rmse": fit.rmse,
        "window": list(fit.window),
        "floored_points": fit.floored_points,
    }
    if bounds is not None:
        check = verify_per_activation(sig, bounds)
        result["signal_within_bounds"] = {
            "ok": check.ok,
            "detail": check.reason if check.ok else (
                f"bounds violated by signal: mode {check.mode} activation "
                f"{check.activation_index} lasts {check.length:.6g}"
            ),
        }
        result["verdicts"].append({"name": "signal_within_bounds", "ok": bool(check.ok)})
    projections = {}
    for name, spec in subspace_specs.items():
        s = orthonormalize(spec, ambient=system.dimension)
        pi = projector(s).matrix
        projections[name] = np.linalg.norm((traj_a.states - traj_b.states) @ pi.T, axis=1)
    result["_traces"] = {
        "times": traj_a.times,
        "a": traj_a.states,
        "b": traj_b.states,
        "distance": distance,
        "projections": projections,
    }
    return result


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_traces(out_dir: Path, sig, traces, plot: bool, title: str) -> None:
    """Write the trajectory pair, distance and signal CSVs of a run_simulation
    result, and with `plot` its distance SVG."""
    times = traces["times"]
    n = traces["a"].shape[1]
    state_header = "time," + ",".join(f"x{i + 1}" for i in range(n))
    _write_csv(out_dir / "trajectory_a.csv", state_header,
               np.column_stack([times, traces["a"]]))
    _write_csv(out_dir / "trajectory_b.csv", state_header,
               np.column_stack([times, traces["b"]]))
    proj_names = sorted(traces["projections"])
    header = "time,norm_full" + "".join(f",norm_{name}" for name in proj_names)
    columns = [times, traces["distance"]] + [traces["projections"][p] for p in proj_names]
    _write_csv(out_dir / "distance.csv", header, np.column_stack(columns))
    write_signal_csv(sig, out_dir / "signal.csv")
    if plot:
        series = [("|x_a - x_b|", times, traces["distance"])]
        for name in proj_names:
            series.append((f"projected onto {name}", times, traces["projections"][name]))
        write_line_plot(out_dir / "distance.svg", series, vlines=sig.switch_times,
                        title=title, y_label="distance (log scale)")
