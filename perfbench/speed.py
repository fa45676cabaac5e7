"""How fast this host runs Python at the moment, sampled while ops run.

On a shared host (measured on a 2-vCPU KVM guest of a Xeon Sapphire
Rapids) other tenants change the speed of a fixed pure-Python loop by up
to 1.9x, in phases from a fraction of a second to minutes long, with no
steal time and with process time slowing as much as wall time.  Timings
taken minutes apart therefore differ more than a regression bound allows.

`SpeedProbe` times a fixed calibration loop every INTERVAL_S from a
SIGALRM handler.  An op's time, less the time the handler took during it,
is scaled by CAL_REF_S / (the loop's time) averaged over the samples
taken just before, during and just after the op.  The result reads in
seconds of this host when no other tenant slows it.  On a warm loop of
Smith normal forms the quartile spread of about 230 timings fell from
0.16 of the median to 0.04 this way.  Code that waits on memory more
than the loop does slows less: `tor`'s ops slowed about as the loop's
speed to the power 0.75, so their scaled times still drift by a few
percent with the host's phase.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
CAL_ITERATIONS = 3000
# The calibration loop's time on the host above when nothing slowed it
# (its fastest phase); the constant only sets the scale of the results.
CAL_REF_S = 0.0006


def calibration_loop(n=CAL_ITERATIONS):
    """Dict updates, small tuples and integer arithmetic, as in the library."""
    table = {}
    acc = 0
    for i in range(n):
        key = (i * 7) % 97
        table[key] = table.get(key, 0) + i
        acc += len((key, i, acc & 3))
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples = []       # durations of the calibration loop
        self.spent = 0.0        # time the timer's samples took in total
        self._busy = False

    def sample(self):
        if self._busy:
            return 0.0
        self._busy = True
        t0 = time.perf_counter()
        calibration_loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self._busy = False
        return took

    def _tick(self, signum, frame):
        self.spent += self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """Take a sample now; returns a mark for `scaled`."""
        self.sample()
        return len(self.samples) - 1, self.spent

    def factor(self, since):
        """The scale over the samples taken since the mark."""
        first, _ = since
        return statistics.fmean(CAL_REF_S / c for c in self.samples[first:])

    def scaled(self, since, seconds):
        """`seconds` measured since the mark, in uncontended seconds.

        Takes a closing sample; the timer's own samples in between are
        subtracted from `seconds`.
        """
        self.sample()
        return (seconds - (self.spent - since[1])) * self.factor(since)
