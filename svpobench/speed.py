"""The machine's speed, measured with a fixed reference kernel.

On a shared machine the speed a program gets drifts with whatever else
runs beside it: for seconds or minutes at a time every step may take up
to about twice as long. The benchmark follows that drift with a fixed
kernel that no change to the program can make faster and that does the
kind of work the program does per state: interpreter work (arithmetic,
dict and tuple operations) between tiny numpy calls (a 5x16
matrix-vector product, max, exp and sum). It rescales its timings to
the speed at which the kernel takes ``REFERENCE_S``; a timing rescaled
this way reads in reference seconds.
"""
from __future__ import annotations

import bisect
from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_S = 1e-3
_LOOP = 100
_TABLE: dict = {}
_M = np.random.default_rng(1).standard_normal((5, 16))
_V = np.ones(16)


def kernel_seconds() -> float:
    """Time of one run of the reference kernel (about a millisecond)."""
    t0 = perf_counter()
    acc = 0
    for i in range(_LOOP):
        _TABLE[i & 31, i & 7] = (i, acc)
        acc = (acc + i * i) % 7
        z = _M @ _V
        z = np.exp(z - z.max())
        acc += int(z.sum() > 0)
    return perf_counter() - t0


def slowdown_now() -> float:
    """How much slower than the reference the machine runs right now."""
    return median(kernel_seconds() for _ in range(3)) / REFERENCE_S


class SpeedLog:
    """Kernel timings taken at most every ``every`` seconds, with the
    time each was taken; ``slowdown(t)`` reads the speed near ``t``."""

    def __init__(self, every: float = 0.1, window: float = 0.5):
        self.every = every
        self.window = window
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> float:
        """Time the kernel if ``every`` has passed since the last sample;
        returns the time spent, so that callers can leave it out."""
        start = perf_counter()
        if start - self._last < self.every:
            return 0.0
        self.seconds.append(kernel_seconds())
        self.times.append(start)
        self._last = perf_counter()
        return self._last - start

    def slowdown(self, t: float) -> float:
        """Median kernel time within ``window`` seconds of ``t`` (else the
        nearest sample) over ``REFERENCE_S``; 1 when nothing was sampled."""
        if not self.seconds:
            return 1.0
        lo = bisect.bisect_left(self.times, t - self.window)
        hi = bisect.bisect_right(self.times, t + self.window)
        if lo == hi:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
            i = min(near, key=lambda i: abs(self.times[i] - t))
            return self.seconds[i] / REFERENCE_S
        return median(self.seconds[lo:hi]) / REFERENCE_S
