"""The host's speed, sampled on a timer, to scale measured times by.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
up to 2x for seconds to minutes at a time: a fixed piece of pure-Python
work takes 1.3 ms in one stretch and 2.3 ms in the next.  No statistic
over a run's raw times removes that, since a whole run can fall in a slow
stretch.  So every ``EVERY_S`` seconds a timer signal interrupts the run,
between two bytecodes of its one thread, to time ``reference_work``: a
small breadth-first search over tuples, the same kind of work as
finspace's fence BFS.  A
measured time, less the sampling done inside it, is scaled by the host's
mean speed relative to ``REFERENCE_S`` over the samples taken during it,
``TRIM`` of them cut at each end, or for a short time by ``REFERENCE_S``
over the median of the ``NEAR`` nearest samples.  A mean follows a slow
stretch that covers part of a long time; a median would ignore it up to
half the time.  A scaled time reads
as the time it would take on the host at its reference speed; the runner
prints raw times beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# reference_work's median duration, sampled on the timer, on the 2-vCPU
# Xeon VM the benchmark was tuned on (Python 3.11.7); a scaled time is the
# time at that host's usual speed
REFERENCE_S = 0.0028
EVERY_S = 0.1
NEAR = 5
# share of a long time's samples cut at each end before their mean speed is
# taken, so that a sample the OS preempted hardly counts
TRIM = 0.1


def reference_work(dims: int = 5, top: int = 3) -> int:
    """Breadth-first search of the grid {0..top}^dims by unit steps."""
    start = (0,) * dims
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for i in range(dims):
                if s[i] < top:
                    t = s[:i] + (s[i] + 1,) + s[i + 1:]
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return len(seen)


class HostSpeed:
    """``with HostSpeed() as speed:`` samples the host's speed until the
    block ends.  ``speed.paused`` is the total time spent sampling, to be
    taken out of any time measured across it."""

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.durations: list[float] = []
        self.paused = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self):
        for _ in range(3):  # warm-up, not kept
            reference_work()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a slow sample outlasted the interval
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)
        self.paused += t1 - t0
        self._busy = False

    def factor(self, t0: float, t1: float) -> float:
        """Reference speed over the host's speed between t0 and t1."""
        if len(self.times) < NEAR:  # too short a run to have sampled
            self._sample()
            return self.factor(t0, t1)
        lo, hi = bisect_left(self.times, t0), bisect_right(self.times, t1)
        if hi - lo >= 2 * NEAR:
            speeds = sorted(REFERENCE_S / d for d in self.durations[lo:hi])
            cut = int(len(speeds) * TRIM)
            return statistics.fmean(speeds[cut:len(speeds) - cut])
        while hi - lo < NEAR:
            if lo == 0 or (hi < len(self.times) and self.times[hi] - t1 < t0 - self.times[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * self.factor(t0, t1)
