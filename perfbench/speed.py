"""Machine-speed calibration for the benchmark's reported times.

The benchmark runs on machines shared with other tenants, whose load slows
every op by up to 2x in phases lasting seconds to tens of minutes. A fixed
calibration kernel is timed next to each measurement, and reported times are
scaled to a machine on which that kernel takes REFERENCE_S: a real slowdown
of the package moves the scaled time, a slower phase of the machine mostly
does not. During an op the kernel is timed every SAMPLE_PERIOD_S (Sampler).
Raw wall times are kept alongside.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Kernel time on the machine the benchmark was defined on (an x86_64 Xeon
# vCPU at 2.1 GHz, Python 3.11, numpy 2.4) when undisturbed.
REFERENCE_S = 0.010
KERNEL_STEPS = 4000
REPEATS = 3
SAMPLE_PERIOD_S = 0.5


def kernel() -> float:
    """Python-level loop over tiny numpy arrays, like the package's hot loops."""
    x = np.ones(2)
    acc = 0.0
    for i in range(KERNEL_STEPS):
        x = x * 0.999 + 0.001
        acc += math.sqrt(i) + float(x[0])
    return acc


def kernel_seconds() -> float:
    """Fastest of REPEATS timed kernel runs: the machine's current speed."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, kernel_s: float) -> float:
    """A wall time measured while the kernel took kernel_s, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Times the kernel every SAMPLE_PERIOD_S while a measured op runs.

    A SIGALRM timer interrupts the op to time the kernel, and the interrupts'
    own time is left out of the op's. The op's time is thus split into
    stretches with a kernel time at each end: `kernels` starts with the one
    taken before the op, and the caller appends the one taken after it.
    Scaling each stretch by its own kernel times follows a slower phase of
    the machine that starts or ends inside an op.
    """

    def __init__(self, kernel_before: float):
        self.kernels = [kernel_before]
        self.stretches: list[float] = []
        self.active = False
        self.mark = 0.0

    def _sample(self, signum, frame):
        if self.active:
            self.stretches.append(time.perf_counter() - self.mark)
            self.kernels.append(kernel_seconds())
            self.mark = time.perf_counter()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self.stretches.append(time.perf_counter() - self.mark)
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
