"""Host-speed probe: timings converted to a fixed reference speed.

The benchmark was defined on a shared host whose speed changes by up to
1.8x between stretches of a few seconds to a few minutes.  A run cannot
outlast such a stretch, so raw times from two sets of runs disagree by
more than any useful bound.  The probe measures the host's speed while the
run is timed, and the timings are converted to what they would be on the
host at a fixed reference speed.

While the probe runs, an interval timer interrupts the process every
PERIOD_S seconds, and the signal handler times one run of kernel(): a fixed
product of two small polynomials stored as exponent-tuple dictionaries
with Fraction coefficients, the inner loop of MPoly.__mul__, written here
and never imported from the program.  Each sample gives the host's speed
at that moment as REFERENCE_S / kernel time.  An interval's reference time
is its measured time times the mean of those speeds over the samples taken
during it and up to WINDOW_S before and after it.  Samples are spread
evenly in time, so this mean is exact when the host switches between
speeds and the kernel and the program slow down by the same factor.  The
handler's own time is counted in `spent`, so that callers can leave it out
of the intervals they time.

Run alone, this file prints the kernel's time and the speed factor it
would report on this host right now:

    python3 perfbench/bench_speed.py
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List

PERIOD_S = 0.025
WINDOW_S = 0.5
WARM_UP_CALLS = 10
# kernel()'s time on the host where the benchmark was defined, in a fast
# stretch; a reference time is a time at that speed
REFERENCE_S = 320e-6

_LEFT = {(i, j, 0): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
_RIGHT = {(i, 0, j): i - j + 1 for i in range(2) for j in range(3)}


def kernel() -> int:
    product = {}
    for e2, c2 in _RIGHT.items():
        for e1, c1 in _LEFT.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            s = product.get(key, 0) + c1 * c2
            if s == 0:
                product.pop(key, None)
            else:
                product[key] = s
    return len(product)


class SpeedProbe:
    def __init__(self):
        self.at: List[float] = []      # sample start times
        self.speed: List[float] = []   # REFERENCE_S / kernel time
        self.spent = 0.0               # seconds spent in the handler

    def _sample(self, signum, frame):
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.at.append(start)
        self.speed.append(REFERENCE_S / took)
        self.spent += perf_counter() - start

    def start(self, period: float = PERIOD_S):
        # the first calls of a function in a process run unspecialised
        # bytecode; they are not samples
        start = perf_counter()
        for _ in range(WARM_UP_CALLS):
            kernel()
        self.spent += perf_counter() - start
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Mean host speed over the samples in and near [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed sample near a timed interval")
        return statistics.fmean(self.speed[lo:hi])

    def mean(self) -> float:
        """Mean host speed over every sample."""
        if not self.speed:
            raise RuntimeError("no speed sample")
        return statistics.fmean(self.speed)


if __name__ == "__main__":
    times = []
    for _ in range(200):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    median = statistics.median(times)
    print(f"kernel {1e6 * median:.1f} us, speed factor "
          f"{REFERENCE_S / median:.3f} (reference {1e6 * REFERENCE_S:.0f} us)")
