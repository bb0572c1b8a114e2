"""The host's speed during a round, sampled with a fixed probe.

The host the benchmark was defined on (2 shared vCPUs of an Intel Xeon,
CPython 3.11.7) runs the same code up to two times slower for stretches of
seconds to minutes, because of other tenants; in the slowest stretches not
one millisecond runs at full speed.  A round therefore samples the host's
speed: every ``PERIOD`` seconds a timer signal runs ``probe``, a fixed piece
of interpreter work, and records when it ended and how long it took.

An interval's time in *reference seconds* is its time outside the probes
times the mean of ``REFERENCE_PROBE_S / duration`` over the probes in it
(``window``): the time it would have taken had every probe in it run at
the probe's full speed on that host.  The probe mixes dict lookups with
rational arithmetic, as the exact layers do: measured side by side over
45 s on that host, the per-second time of rational arithmetic varied by a
factor 1.99 raw and 1.14 once divided by the probe's, and of numpy FFTs by
1.89 raw and 1.12 divided.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

PERIOD = 0.01
# The probe's fastest duration on the host the benchmark was defined on
# (0.24 ms to 0.26 ms over the runs where that host was fastest).
REFERENCE_PROBE_S = 0.25e-3

_perf = time.perf_counter
_TABLE = {i: 3 * i for i in range(64)}


def probe():
    """A fixed piece of interpreter work, about 0.25 ms at full speed."""
    s, table, x = 0, _TABLE, Fraction(1, 3)
    for i in range(2000):
        s += table[i & 63]
    for i in range(1, 41):
        x = x * Fraction(i, i + 1) + 1
    return s, x


class Speedometer:
    """Runs ``probe`` every ``PERIOD`` seconds between start and stop."""

    def __init__(self):
        self.ends = array("d")
        self.lengths = array("d")

    def _tick(self, signum, frame):
        t0 = _perf()
        probe()
        t1 = _perf()
        self.ends.append(t1)
        self.lengths.append(t1 - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def fastest(self):
        return min(self.lengths)

    def window(self, start, end):
        """(total duration of the probes that ended in (start, end], mean
        of REFERENCE_PROBE_S / duration over them).

        A window that holds no probe takes the mean from the probe that
        ended nearest to its middle.
        """
        lo = bisect.bisect_right(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.lengths[lo:hi]
        probed = sum(inside)
        if not inside:
            mid = (start + end) / 2
            i = bisect.bisect_left(self.ends, mid)
            near = [j for j in (i - 1, i) if 0 <= j < len(self.ends)]
            inside = [self.lengths[min(near,
                                       key=lambda j: abs(self.ends[j] - mid))]]
        return probed, sum(REFERENCE_PROBE_S / x for x in inside) / len(inside)
