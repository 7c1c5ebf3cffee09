"""Switching signals: activation statistics, average dwell/leave-time
verification, per-activation checks, and compliant signal generators."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .certificates import DwellBounds
from .ioutil import atomic_write_text
from .system import ConfigError

TIME_EPS = 1e-12
SCALE_BITS = 53 - math.frexp(TIME_EPS)[1]  # 92; a length > TIME_EPS is a multiple of 2^-SCALE_BITS
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
    and the mode stays constant on [t_k, t_{k+1}). modes, switch_times,
    boundaries and activations are built on first read and kept, so every
    check of a signal reads one list; equality and hashing read the fields.
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
        for _, mode in self.events:
            if mode < 1 or int(mode) != mode:
                raise ValueError(f"mode ids are positive integers, got {mode}")
        for (previous_t, previous_m), (t, mode) in zip(self.events, self.events[1:]):
            if t - previous_t <= TIME_EPS:
                raise ValueError(f"dwell times must be positive, got switch at {t} after {previous_t}")
            if mode == previous_m:
                raise ValueError(f"consecutive events enter the same mode {mode}")

    @cached_property
    def modes(self) -> tuple:
        return tuple(sorted({mode for _, mode in self.events}))

    @cached_property
    def switch_times(self) -> tuple:
        return tuple(t for t, _ in self.events[1:])

    @cached_property
    def boundaries(self) -> tuple:
        """Activation boundaries: the start, each switch and the horizon, each
        more than TIME_EPS after the one before."""
        return (self.start_time, *self.switch_times, self.horizon)

    @cached_property
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
    count, total = 0, 0.0
    for act in sig.activations:
        if act.mode != mode:
            continue
        overlap = min(act.end, t_b) - max(act.start, t_a)
        if overlap > TIME_EPS:
            count += 1
            total += overlap
    return DwellStats(mode, (t_a, t_b), count, total)


@dataclass(frozen=True)
class WindowCheck:
    """One average dwell- or leave-time condition, judged by one scan for its
    worst window. tightest_offset is the offset at which the condition just
    holds, N - T/tau on that window (at least 0 for the dwell condition)."""

    ok: bool
    worst_value: float   # most violating value of the checked inequality's slack
    worst_window: tuple  # (t_a, t_b) attaining it
    checked_windows: int
    tightest_offset: float


def _worst(sig: SwitchingSignal, mode: int, tau: float, sign: int) -> tuple:
    """((t_a, t_b), N, T) of the switching-time window that maximises
    sign * (tau * N - T), in O(K) for K activations.

    Windows start and end on activation boundaries, so each activation of the
    mode lies wholly inside or outside one: the window over activations
    i..j-1 has N = C(j) - C(i) and T = S(j) - S(i), with C counting and S
    summing the mode's activations among the first k. Its score is therefore
    key(j) - key(i) with key(k) = sign * (tau * C(k) - S(k)), and one
    suffix-maximum pass finds the largest difference, the first window in
    (start, end) order on a tie. T is the left-to-right float sum of the
    window's lengths, dwell_stats' own additions.

    The keys are exact integers at scale 2^max(SCALE_BITS, m) for tau = num / 2^m
    (m > SCALE_BITS only for tau below about 2^-40): a length x > TIME_EPS has an
    ulp of at least 2^-SCALE_BITS, so x * 2^SCALE_BITS is an integer-valued float,
    and from 2^53, before that product can overflow, x is an int to shift. Each
    activation costs a read of its mode, start and end, one addition in
    accumulate and two comparisons in the reverse pass, and one float multiply,
    int() and integer multiply-subtract if it is of the mode."""
    if mode not in sig.modes:
        raise KeyError(f"mode {mode} never appears in the signal")
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be a finite number > 0, got {tau}")
    acts, scale = sig.activations, 2.0 ** SCALE_BITS
    num, den = tau.as_integer_ratio()
    m = den.bit_length() - 1  # den = 2^m
    tau_key, factor = sign * num << max(SCALE_BITS - m, 0), sign << max(m - SCALE_BITS, 0)
    steps = [tau_key - factor * (int(x * scale) if (x := a.end - a.start) < 2.0 ** 53
                                 else int(x) << SCALE_BITS) if a.mode == mode else 0 for a in acts]
    keys = list(accumulate(steps, initial=0))
    # starts go from last to first and high is max(keys[i + 1:]), so >= keeps
    # the smallest start of the largest gap
    best, start, high = -math.inf, 0, keys[-1]
    for i in range(len(acts) - 1, -1, -1):
        key = keys[i]
        if high - key >= best:
            best, start = high - key, i
        if key > high:
            high = key
    end = keys.index(keys[start] + best, start + 1)
    window = [a.end - a.start for a in acts[start:end] if a.mode == mode]
    total = 0.0  # not sum(), which compensates float additions from Python 3.12
    for x in window:
        total += x
    return (acts[start].start, acts[end - 1].end), len(window), total


def _checked(sig: SwitchingSignal, worst: float, window: tuple, offset: float) -> WindowCheck:
    k = len(sig.events)  # activations, so k + 1 boundaries and k(k + 1)/2 windows
    return WindowCheck(bool(worst <= 1e-12), worst, window, k * (k + 1) // 2, offset)


def verify_mdadt(sig: SwitchingSignal, mode: int, tau_lower: float,
                 n_lower: float) -> WindowCheck:
    """Average dwell time: N(t_a,t_b) <= n_lower + T(t_a,t_b)/tau_lower over all
    windows with switching-time endpoints (statistics change only there).
    O(K) by _worst: the worst window maximises N - T/tau_lower exactly, the
    first in (start, end) order on a tie. Its tightest_offset is the smallest
    n_lower that passes, max(0, N - T/tau_lower) on that window."""
    if tau_lower <= 0 or n_lower <= 0:
        raise ValueError("tau_lower and n_lower must be positive")
    window, n, t = _worst(sig, mode, tau_lower, +1)
    return _checked(sig, n - n_lower - t / tau_lower, window, max(0.0, n - t / tau_lower))


def verify_mdalt(sig: SwitchingSignal, mode: int, tau_upper: float,
                 n_upper: float) -> WindowCheck:
    """Average leave time: N(t_a,t_b) >= n_upper + T(t_a,t_b)/tau_upper over all
    switching-time windows. n_upper may be any real. O(K) by _worst: the
    worst window maximises T/tau_upper - N exactly, the first in (start, end)
    order on a tie. Its tightest_offset is the largest n_upper that passes,
    N - T/tau_upper on that window."""
    if tau_upper <= 0:
        raise ValueError("tau_upper must be positive")
    window, n, t = _worst(sig, mode, tau_upper, -1)
    return _checked(sig, n_upper + t / tau_upper - n, window, n - t / tau_upper)


def tightest_mdadt_offset(sig: SwitchingSignal, mode: int, tau_lower: float) -> float:
    """Smallest n_lower making verify_mdadt pass for the given tau_lower: its
    tightest_offset, by a second O(K) scan that only perfbench and the tests run."""
    _, n, t = _worst(sig, mode, tau_lower, +1)
    return max(0.0, n - t / tau_lower)


def tightest_mdalt_offset(sig: SwitchingSignal, mode: int, tau_upper: float) -> float:
    """Largest n_upper making verify_mdalt pass for the given tau_upper: its
    tightest_offset, by a second O(K) scan that only perfbench and the tests run."""
    _, n, t = _worst(sig, mode, tau_upper, -1)
    return n - t / tau_upper


@dataclass(frozen=True)
class ActivationCheck:
    ok: bool
    mode: int | None
    activation_index: int | None
    reason: str


def verify_per_activation(sig: SwitchingSignal, bounds: DwellBounds) -> ActivationCheck:
    """Every activation of a lower-bounded mode must last at least tau_lower and
    every activation of an upper-bounded mode at most tau_upper.

    The final activation is censored by the horizon: its observed length still
    enforces the upper bound but cannot fail the lower one. A mode of sig
    without bounds raises ConfigError.
    """
    for mode in sig.modes:
        if mode not in bounds.lower and mode not in bounds.upper:
            raise ConfigError(f"no dwell bounds for mode {mode}")
    counters = dict.fromkeys(sig.modes, 0)
    lower_of, upper_of = bounds.lower.get, bounds.upper.get
    for act in sig.activations:
        mode, length = act.mode, act.end - act.start
        upper = upper_of(mode)
        if upper is not None and length > upper + TIME_EPS:
            return ActivationCheck(False, mode, counters[mode],
                                   f"activation lasts {length:.6g} > {upper:.6g}")
        lower = lower_of(mode)
        if lower is not None and not act.censored and length < lower - TIME_EPS:
            return ActivationCheck(False, mode, counters[mode],
                                   f"activation lasts {length:.6g} < {lower:.6g}")
        counters[mode] += 1
    return ActivationCheck(True, None, None, "all activations within bounds")


def generate_periodic(mode_order, dwell: float, t0: float, horizon: float) -> SwitchingSignal:
    """Cyclic schedule over mode_order, every activation dwell long, truncated
    at the horizon."""
    mode_order = list(mode_order)
    dwell = float(dwell)
    if not mode_order:
        raise ValueError("empty mode list")
    if horizon - t0 <= TIME_EPS:
        raise ValueError("horizon must exceed the start time")
    if dwell <= 0:
        raise ValueError("dwell times must be positive")
    events = []
    k = 0
    while horizon - (t := t0 + k * dwell) > TIME_EPS:
        events.append((t, mode_order[k % len(mode_order)]))
        k += 1
        if len(mode_order) == 1:
            break
    return SwitchingSignal(events[0][0], tuple(events), horizon)  # not t0: -0.0 + 0.0 is 0.0


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
    atomic_write_text(path, ["time,mode\n" + "".join(f"{t!r},{mode}\n" for t, mode in sig.events)
                             + f"{sig.horizon!r},end\n"])


def read_signal_csv(path) -> SwitchingSignal:
    """Read a signal CSV: a `time,mode` row per event, then `<horizon>,end`;
    a file that cannot be read or does not hold a valid signal raises
    ConfigError."""
    try:
        with Path(path).open(encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: not UTF-8
        raise ConfigError(str(exc)) from None
    for column in ("time", "mode"):
        if rows and column not in reader.fieldnames:  # no rows: the end-row error
            raise ConfigError(f"signal file {path} has no {column!r} column")
    if not rows or rows[-1]["mode"] != "end":
        raise ConfigError(f"signal file {path} lacks its last row `<time>,end`, the horizon")
    try:
        events = tuple((float(r["time"]), int(r["mode"])) for r in rows[:-1])
        return SwitchingSignal(float(rows[0]["time"]), events, float(rows[-1]["time"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad signal file {path}: {exc}") from None
