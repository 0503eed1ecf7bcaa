"""The core's speed, sampled while a worker session runs.

On a shared host the speed of a core changes by up to a factor of two for
seconds to minutes at a time (other guests load the same physical core),
and CPU time grows with it.  A ``Probe`` times a fixed calibration loop
every ``EVERY_S`` of the process's CPU time, from a SIGPROF handler, so it
samples the core evenly over the whole session.  ``clock`` is the thread's
CPU time without the calibration, and ``scaled`` converts an interval of it
to reference seconds: the interval times ``REFERENCE_S`` over the mean
calibration time sampled in and around that interval.  Reference seconds
are the time the work takes when the calibration loop takes
``REFERENCE_S``, as it does on an idle core of a 2-vCPU Intel Xeon VM;
code that gets faster lowers them in proportion.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import thread_time

EVERY_S = 0.02
REFERENCE_S = 0.0007
WINDOW_S = 0.1  # samples this far outside an interval still count for it
_ZERO = Fraction(0)


def calibration_loop() -> dict:
    """A fixed slice of the interpreter work qsym does: Fraction sums in a dict."""
    acc: dict = {}
    for i in range(300):
        key = (i % 7, i % 3)
        acc[key] = acc.get(key, _ZERO) + Fraction(i % 5 - 2, 1 + i % 4)
    return acc


class Probe:
    def __init__(self):
        self.at: list[float] = []  # clock() when each sample was taken
        self.took: list[float] = []  # CPU seconds the calibration loop took
        self.spent = 0.0  # CPU seconds inside sample(), left out of clock()
        self._busy = False

    def clock(self) -> float:
        return thread_time() - self.spent

    def sample(self, *_signal) -> None:
        if self._busy:  # a SIGPROF during a sample
            return
        self._busy = True
        began = thread_time()
        at = began - self.spent
        calibration_loop()
        took = thread_time() - began
        self.at.append(at)
        self.took.append(took)
        self.spent += thread_time() - began
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def slowdown(self, start: float, end: float) -> float:
        """Mean calibration time around [start, end] over REFERENCE_S."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return statistics.fmean(self.took[lo:hi] or self.took) / REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        return (end - start) / self.slowdown(start, end)
