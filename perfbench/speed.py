"""Machine-speed sampling, so that op times are reported at a fixed speed.

The benchmark shares its cores with other tenants, and the speed it gets
drifts by up to a factor of two within seconds.  Raw op times of one run
therefore say as much about the neighbours as about the code.  While the
ops run, a timer signal interrupts the process every INTERVAL_S and times
a short fixed loop (the probe).  Each op time is reported at reference
speed:

    reported = (measured - time spent in probes) * REFERENCE_S / probe

where probe is the mean time of the probes taken during the op and
within PAD_S before and after it.  The probe mixes the two kinds of work
the package does, interpreter arithmetic and small numpy calls, and
touches no rescert code.  It runs once to warm the caches and once to
measure, so its time follows the machine's speed and hardly the op it
interrupts.  run.py reports the measured times next to the scaled ones.
"""

from __future__ import annotations

import math
import signal
import time
from bisect import bisect_left, bisect_right

import numpy as np

# Median probe time on the machine the baseline was recorded on (2 cores,
# CPython 3.11.7, numpy 2.4.6), so reported times read close to measured
# ones there.
REFERENCE_S = 0.00085
INTERVAL_S = 0.05
# Probes this close to an op count for its speed, so that short ops average
# several probes too.
PAD_S = 0.25

_ARRAY = np.arange(1000, dtype=np.float64)


def _probe_loop() -> float:
    t0 = time.perf_counter()
    x, k = 0.5, 1
    for _ in range(1000):
        x = x * 0.999999 + 0.25
        k = (k * 1103515245 + 12345) & 0xFFFFFFFF
    for _ in range(150):
        x += float(np.sum(_ARRAY[:8]))
    return time.perf_counter() - t0


def probe() -> float:
    """Wall time of the probe loop, measured on its second run."""
    _probe_loop()
    return _probe_loop()


class SpeedSampler:
    """Context manager that probes the machine's speed on a timer signal."""

    def __init__(self):
        self.starts: list[float] = []  # when each probe began
        self.probes: list[float] = []  # probe loop time
        self.costs: list[float] = []  # whole handler time, probe included
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)

    def scaled(self, start: float, end: float) -> float:
        """Time this process spent on [start, end] outside the probes, at
        reference speed, using the probes within PAD_S of the interval."""
        spent = math.fsum(self.costs[bisect_left(self.starts, start):bisect_right(self.starts, end)])
        near_lo = bisect_left(self.starts, start - PAD_S)
        near_hi = max(bisect_right(self.starts, end + PAD_S), near_lo + 1)
        near = self.probes[near_lo:near_hi]
        return max(end - start - spent, 0.0) * REFERENCE_S * len(near) / math.fsum(near)
