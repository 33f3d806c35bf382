"""Wall times scaled to a reference machine speed.

The CPU of a shared machine can run the same code up to twice as slowly for
tens of seconds at a time, longer than one run can average out. Around every
timed stage the benchmark therefore times a fixed calibration kernel: scalar
numpy steps in a Python loop, like the per-point loops of the library, and
vectorised work on arrays of the workloads' size. The kernel is benchmark
code and does not touch gluecop, so a change to gluecop cannot move it. A
stage's adjusted time is its wall time times ``KERNEL_REF_S`` over the mean
of the kernel times measured just before and just after it: the time the
stage would take on a machine where one kernel takes ``KERNEL_REF_S``.

A kernel timed in the parent does not track a fresh process, whose time goes
to interpreter start-up and imports. Set-up processes are therefore scaled
by a cold-start kernel instead: a fresh interpreter that imports numpy and
two compiled scipy modules, a smaller copy of what importing gluecop does,
run just before and just after each of them (``cold_adjusted``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: one kernel on an unloaded core of the development machine
#: (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4)
KERNEL_REF_S = 0.005
KERNEL_REPEATS = 5
#: a kernel time older than this is measured again before the next stage
STALE_S = 1.0
#: the cold-start kernel, and its time on the development machine
COLD_KERNEL = "import numpy, scipy.linalg, scipy.special"
COLD_REF_S = 0.45


def cold_adjusted(wall: float, before: float, after: float) -> float:
    """A fresh process's wall time scaled by the cold-start kernel times
    measured just before and just after it."""
    return wall * COLD_REF_S / (0.5 * (before + after))


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._knots = np.sort(rng.uniform(size=20_000))
        self._probs = np.arange(1, 20_001) / 20_001
        self._points = rng.uniform(size=1001)
        self._matrix = rng.uniform(size=(64, 64))
        self._weights = rng.uniform(size=64)
        self.kernel()
        self._before, self._before_at = self.kernel(), time.perf_counter()

    def _kernel_once(self) -> None:
        lo, hi = np.zeros(1), np.ones(1)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            ge = np.clip(mid * 1.3 - 0.2, 0.0, 1.0) >= 0.5
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        for _ in range(5):
            np.interp(self._points, self._knots, self._probs)
            np.searchsorted(self._knots, self._points)
            self._weights @ np.exp(-self._matrix) @ self._weights

    def kernel(self) -> float:
        """Median wall time of the calibration kernel, in seconds."""
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            self._kernel_once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def run(self, fn, *args, **kwargs):
        """Call ``fn``; return its result, its wall time and its adjusted time."""
        if time.perf_counter() - self._before_at > STALE_S:
            self._before = self.kernel()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = self.kernel()
        adjusted = wall * KERNEL_REF_S / (0.5 * (self._before + after))
        self._before, self._before_at = after, time.perf_counter()
        return out, wall, adjusted
