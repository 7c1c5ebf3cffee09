"""Switching signals: activation statistics, average dwell/leave-time
verification, per-activation checks, and compliant signal generators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import DwellBounds
from .system import ConfigError

TIME_EPS = 1e-12
# generate_random draws each activation length at least this far inside the
# mode's strict dwell bounds, and at most MAX_DWELL for a mode without an upper
# bound.
DWELL_MARGIN = 1e-6
MAX_DWELL = 10.0


@dataclass(frozen=True)
class Activation:
    mode: int
    start: float
    end: float
    censored: bool  # True when the activation is cut off by the horizon

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SwitchingSignal:
    """Right-continuous piecewise-constant mode schedule.

    events[k] = (t_k, mode entered at t_k); the first event is at start_time
    and the mode stays constant on [t_k, t_{k+1}).
    """

    start_time: float
    events: tuple  # ((time, mode), ...)
    horizon: float

    def __post_init__(self):
        if not self.events:
            raise ValueError("a signal needs at least the initial mode event")
        if not all(map(math.isfinite, (self.start_time, self.horizon, *self.switch_times))):
            raise ValueError("the start time, switch times and horizon must be finite")
        if self.events[0][0] != self.start_time:
            raise ValueError("first event must be at the start time")
        if self.horizon - self.events[-1][0] <= TIME_EPS:
            raise ValueError(f"the last activation must last more than {TIME_EPS:g} s, got "
                             f"switch at {self.events[-1][0]} before horizon {self.horizon}")
        previous_t, previous_m = None, None
        for t, mode in self.events:
            if mode < 1 or int(mode) != mode:
                raise ValueError(f"mode ids are positive integers, got {mode}")
            if previous_t is not None:
                if t - previous_t <= TIME_EPS:
                    raise ValueError(f"dwell times must be positive, got switch at {t} after {previous_t}")
                if mode == previous_m:
                    raise ValueError(f"consecutive events enter the same mode {mode}")
            previous_t, previous_m = t, mode

    @property
    def modes(self) -> tuple:
        return tuple(sorted({mode for _, mode in self.events}))

    @property
    def switch_times(self) -> tuple:
        return tuple(t for t, _ in self.events[1:])

    @property
    def boundaries(self) -> tuple:
        """Activation boundaries: the start, each switch and the horizon, each
        more than TIME_EPS after the one before."""
        return (self.start_time, *self.switch_times, self.horizon)

    def activations(self) -> tuple:
        last = len(self.events) - 1
        return tuple(Activation(mode, tk, end, censored=(k == last))
                     for k, ((tk, mode), end) in enumerate(zip(self.events, self.boundaries[1:])))


@dataclass(frozen=True)
class DwellStats:
    mode: int
    window: tuple  # (t_a, t_b)
    count: int     # activations intersecting [t_a, t_b)
    total_time: float  # time the mode is active within [t_a, t_b)


def dwell_stats(sig: SwitchingSignal, mode: int, t_a: float, t_b: float) -> DwellStats:
    """Count activations of a mode intersecting [t_a, t_b) and their total time there."""
    if mode not in sig.modes:
        raise KeyError(f"mode {mode} never appears in the signal")
    if not (sig.start_time - TIME_EPS <= t_a < t_b <= sig.horizon + TIME_EPS):
        raise ValueError(f"window [{t_a}, {t_b}) outside the signal span")
    count = 0
    total = 0.0
    for act in sig.activations():
        if act.mode != mode:
            continue
        overlap = min(act.end, t_b) - max(act.start, t_a)
        if overlap > TIME_EPS:
            count += 1
            total += overlap
    return DwellStats(mode, (t_a, t_b), count, total)


@dataclass(frozen=True)
class WindowCheck:
    ok: bool
    worst_value: float   # most violating value of the checked inequality's slack
    worst_window: tuple  # (t_a, t_b) attaining it
    checked_windows: int


def _windows(sig: SwitchingSignal, mode: int):
    """Yield (t_a, t_b, count, total) of dwell_stats for every switching-time
    window, in (start, end) order. Windows start and end on activation
    boundaries, so each activation of the mode lies wholly inside or outside
    one and adds its whole length: dwell_stats' own additions in its order,
    at O(K) per start."""
    if mode not in sig.modes:
        raise KeyError(f"mode {mode} never appears in the signal")
    acts = sig.activations()
    for i, first in enumerate(acts):
        count, total = 0, 0.0
        for act in acts[i:]:
            if act.mode == mode:
                count += 1
                total += act.length
            yield first.start, act.end, count, total


def _worst_window(sig, mode, violation) -> WindowCheck:
    # violation(n, t) > 0 means the window violates; worst = first max violation
    worst, worst_window, checked = -math.inf, (sig.start_time, sig.horizon), 0
    for t_a, t_b, n, t in _windows(sig, mode):
        value = violation(n, t)
        checked += 1
        if value > worst:
            worst, worst_window = value, (t_a, t_b)
    return WindowCheck(bool(worst <= 1e-12), worst, worst_window, checked)


def verify_mdadt(sig: SwitchingSignal, mode: int, tau_lower: float,
                 n_lower: float) -> WindowCheck:
    """Average dwell time: N(t_a,t_b) <= n_lower + T(t_a,t_b)/tau_lower over all
    windows with switching-time endpoints (statistics change only there)."""
    if tau_lower <= 0 or n_lower <= 0:
        raise ValueError("tau_lower and n_lower must be positive")
    return _worst_window(sig, mode, lambda n, t: n - n_lower - t / tau_lower)


def verify_mdalt(sig: SwitchingSignal, mode: int, tau_upper: float,
                 n_upper: float) -> WindowCheck:
    """Average leave time: N(t_a,t_b) >= n_upper + T(t_a,t_b)/tau_upper over all
    switching-time windows. n_upper may be any real (see tightest_mdalt_offset)."""
    if tau_upper <= 0:
        raise ValueError("tau_upper must be positive")
    return _worst_window(sig, mode, lambda n, t: n_upper + t / tau_upper - n)


def tightest_mdadt_offset(sig: SwitchingSignal, mode: int, tau_lower: float) -> float:
    """Smallest n_lower making verify_mdadt pass for the given tau_lower."""
    return max(0.0, max((n - t / tau_lower for _, _, n, t in _windows(sig, mode)), default=0.0))


def tightest_mdalt_offset(sig: SwitchingSignal, mode: int, tau_upper: float) -> float:
    """Largest n_upper making verify_mdalt pass for the given tau_upper."""
    return min((n - t / tau_upper for _, _, n, t in _windows(sig, mode)), default=math.inf)


@dataclass(frozen=True)
class ActivationCheck:
    ok: bool
    mode: int | None
    activation_index: int | None
    length: float | None
    reason: str


def verify_per_activation(sig: SwitchingSignal, bounds: DwellBounds) -> ActivationCheck:
    """Every activation of a lower-bounded mode must last at least tau_lower and
    every activation of an upper-bounded mode at most tau_upper.

    The final activation is censored by the horizon: its observed length still
    enforces the upper bound but cannot fail the lower one.
    """
    for mode in sig.modes:
        if mode not in bounds.lower and mode not in bounds.upper:
            raise ValueError(f"no dwell bounds for mode {mode}")
    counters = {mode: 0 for mode in sig.modes}
    for act in sig.activations():
        index = counters[act.mode]
        counters[act.mode] += 1
        upper = bounds.upper.get(act.mode)
        if upper is not None and act.length > upper + TIME_EPS:
            return ActivationCheck(False, act.mode, index, act.length,
                                   f"activation lasts {act.length:.6g} > {upper:.6g}")
        lower = bounds.lower.get(act.mode)
        if lower is not None and not act.censored and act.length < lower - TIME_EPS:
            return ActivationCheck(False, act.mode, index, act.length,
                                   f"activation lasts {act.length:.6g} < {lower:.6g}")
    return ActivationCheck(True, None, None, None, "all activations within bounds")


def generate_periodic(mode_order, dwell, t0: float, horizon: float) -> SwitchingSignal:
    """Cyclic schedule over mode_order, truncated at the horizon. dwell is a
    single time or a per-mode mapping."""
    mode_order = list(mode_order)
    if not mode_order:
        raise ValueError("empty mode list")
    if horizon - t0 <= TIME_EPS:
        raise ValueError("horizon must exceed the start time")
    if isinstance(dwell, dict):
        dwell_of = lambda q: float(dwell[q])  # noqa: E731
        cumulative = lambda k: t0 + sum(  # noqa: E731
            dwell_of(mode_order[i % len(mode_order)]) for i in range(k)
        )
    else:
        step = float(dwell)
        dwell_of = lambda q: step  # noqa: E731
        cumulative = lambda k: t0 + k * step  # noqa: E731
    events = []
    k = 0
    while horizon - cumulative(k) > TIME_EPS:
        mode = mode_order[k % len(mode_order)]
        if events and events[-1][1] == mode:
            raise ValueError("mode order repeats a mode consecutively")
        if dwell_of(mode) <= 0:
            raise ValueError("dwell times must be positive")
        events.append((cumulative(k), mode))
        k += 1
        if len(mode_order) == 1:
            break
    return SwitchingSignal(t0, tuple(events), horizon)


def generate_random(modes, bounds: DwellBounds, t0: float, horizon: float,
                    seed: int) -> SwitchingSignal:
    """Seeded random compliant signal: every activation length is drawn
    uniformly from the mode's admissible interval and the next mode is a seeded
    uniform choice among the other modes, so verify_per_activation passes by
    construction."""
    modes = list(modes)
    if not modes:
        raise ValueError("empty mode list")
    intervals = {}
    for mode in modes:
        low = bounds.lower.get(mode)
        high = bounds.upper.get(mode)
        lo = (low + DWELL_MARGIN) if low is not None else DWELL_MARGIN
        hi = (high - DWELL_MARGIN) if high is not None else MAX_DWELL
        if lo >= hi:
            raise ValueError(
                f"mode {mode} has an empty admissible dwell interval "
                f"[{lo:.6g}, {hi:.6g}] (bounds infeasible under strict inequalities)"
            )
        intervals[mode] = (lo, hi)
    rng = np.random.default_rng(seed)
    events = []
    t = t0
    mode = modes[int(rng.integers(0, len(modes)))]
    while horizon - t > TIME_EPS:
        events.append((t, mode))
        lo, hi = intervals[mode]
        t += float(rng.uniform(lo, hi))
        if len(modes) == 1:
            break
        choices = [m for m in modes if m != mode]
        mode = choices[int(rng.integers(0, len(choices)))]
    return SwitchingSignal(t0, tuple(events), horizon)


def write_signal_csv(sig: SwitchingSignal, path) -> None:
    from .ioutil import atomic_write_text

    lines = ["time,mode"]
    for t, mode in sig.events:
        lines.append(f"{t!r},{mode}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_signal_csv(path, horizon: float) -> SwitchingSignal:
    """Read a `time,mode` signal CSV that runs until the horizon; a file that
    does not hold a valid signal raises ConfigError."""
    import csv
    from pathlib import Path

    with Path(path).open(encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    if not rows:
        raise ConfigError(f"empty signal file {path}")
    for column in ("time", "mode"):
        if column not in reader.fieldnames:
            raise ConfigError(f"signal file {path} has no {column!r} column")
    try:
        events = tuple((float(r["time"]), int(r["mode"])) for r in rows)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad signal file {path}: {exc}") from None
    try:
        return SwitchingSignal(events[0][0], events, horizon)
    except ValueError as exc:
        raise ConfigError(f"bad signal file {path}: {exc}") from None
