"""Timing helpers shared by run.py and worker.py.

Other tenants of a shared host slow its CPU by up to 1.8x for seconds at a
time, so raw pass times are bimodal.  A fixed pure-Python loop is timed just
before and just after each timed piece of work.  The work's time is then
multiplied by ``NOMINAL_CALIBRATION_NS`` over the loops' time, which reports
it at one CPU speed.  The nominal value is the loop's time on the idle
development host (2.1 GHz Xeon, Python 3.11.7).  Scaled figures therefore read
as times on that host when idle, and stay proportional to the work on any
other host.
"""

import math
import statistics
import time

CALIBRATION_STEPS = 4000
NOMINAL_CALIBRATION_NS = 600_000


def calibration_ns():
    """Time of a fixed loop of float arithmetic and calls, in ns."""
    clock = time.perf_counter_ns
    t0 = clock()
    acc = 0.0
    for i in range(CALIBRATION_STEPS):
        acc += math.exp(-i * 1e-4) + (i % 7) * 0.5
    return clock() - t0


class Yardstick:
    """Times calibration loops between consecutive pieces of work.

    Each piece's scale is ``NOMINAL_CALIBRATION_NS`` over the mean of the loop
    just before and the loop just after it; neighbours share a loop.
    """

    def __init__(self):
        calibration_ns()  # warm-up
        self._last = calibration_ns()

    def run(self, work):
        """Run ``work()``; returns (its result, its scale)."""
        result = work()
        after = calibration_ns()
        scale = NOMINAL_CALIBRATION_NS / ((self._last + after) / 2.0)
        self._last = after
        return result, scale


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping the lowest and highest tenth.

    What the scaling leaves of the host's noise is still skewed; a trimmed
    mean ignores outliers like a median but averages the rest.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])
