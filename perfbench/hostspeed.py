"""Speed of a shared host, from a fixed calibration slice, and metrics
scaled to a reference host speed.

Other tenants of the host slow everything run here by up to 2x, in phases
from a tenth of a second to minutes, and CPU time slows with wall time.
Timing the same fixed slice of interpreter work while the program runs
measures how fast the host is at that time; a time scaled by
CAL_REF_S / (mean slice time) is the time on a host where the slice takes
CAL_REF_S.  A change of host speed moves the slices and the program alike
and largely cancels; a change to the program moves only the program.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import random
import signal
import time

import numpy as np

#: iterations of one calibration slice, about 10 ms on a quiet 2-vCPU Xeon
CAL_ITERATIONS = 6000
#: slice time that scaled times refer to: seconds on a host where a slice
#: takes this long
CAL_REF_S = 0.010
#: mean wall time between slices; the mean of a run's slices is then known
#: to about 2% (single slices spread by about 30%)
CAL_EVERY_S = 0.1


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of interpreter work like the package's
    scalar closed forms: float and complex math, numpy scalars, a dict.

    Of the kinds of work tried for the slice (this one, building small frozen
    dataclasses through function calls, formatting floats into CSV rows, and
    their sum), this one tracked the run-to-run speed of all three workloads
    best on the reference host."""
    t0 = time.perf_counter()
    acc, z, x, seen = 0.0, 0.3 + 0.1j, np.float64(0.7), {}
    for i in range(CAL_ITERATIONS):
        z = z * cmath.exp(1e-3j) + 1e-6
        acc += math.sin(i * 1e-3) * math.sqrt(i + 1.0) / (1.0 + abs(z))
        x = x * np.float64(1.0000001) + np.float64(1e-9)
        seen[i & 63] = acc
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration slices taken while the program runs.

    Inside `sampling()`, a SIGALRM timer interrupts the program about every
    CAL_EVERY_S of wall time (jittered, so that it cannot lock onto a
    period of the program) and runs one slice, wherever the program is:
    the slices sample the run evenly, long operations included.  `clock()`
    is perf_counter without the time spent in slices; operations are timed
    by it, so the slices cost them nothing but the cache they disturb.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._busy = 0.0
        self._rng = random.Random(0)

    def clock(self) -> float:
        while True:  # a slice may run between the two reads
            busy = self._busy
            now = time.perf_counter()
            if busy == self._busy:
                return now - busy

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S * self._rng.uniform(0.5, 1.5))

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.slices.append(calibration_slice())
        self._arm()
        self._busy += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._arm()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        return CAL_REF_S / float(np.mean(self.slices))


def scaled(value: float, unit: str, scale: float) -> float:
    """A metric at the reference host speed: times multiply, rates divide."""
    if unit in ("s", "ms", "us"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value
