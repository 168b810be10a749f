"""Machine-speed probe for timings taken on a shared, unsteady host.

On a shared 2-core virtual machine the CPU speed seen by one process
switches between states about 25% apart, each lasting seconds to minutes,
so raw wall times of identical runs spread by more than any useful bound.
The probe runs a fixed pure-Python calibration loop from a timer signal,
``TICKS_PER_S`` times a second, and measures it in thread CPU time; a
timing is then converted to *reference seconds*: each stretch of measured
time is scaled by ``REFERENCE_S`` over the calibration time measured
around it.

Thread CPU time is used so that the probe sees the hardware's speed and
not time-sharing: a change that runs more threads than there are cores
slows the work but not the probe, and its cost stays visible.

The probe's own time is excluded from every converted interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

TICKS_PER_S = 20
CALIBRATION_LOOPS = 10000
# Calibration time at reference speed (about the loop's time on the 2-core
# x86-64 virtual machine of the recorded baseline); converted seconds are
# relative to it.
REFERENCE_S = 0.0009
SMOOTHING = 5  # ticks in the running median of the calibration time


def calibrate():
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i
    return s


class SpeedProbe:
    """Samples calibration time on a timer; converts intervals to reference seconds."""

    def __init__(self):
        self.starts = []  # time.monotonic() at each tick's start
        self.ends = []
        self.cal = []  # thread CPU seconds of each calibration
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        period = 1.0 / TICKS_PER_S
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def _tick(self, signum, frame):
        # A signal arriving while a tick runs would start a nested tick
        # inside it; skip it so ticks never overlap.
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        c0 = time.thread_time()
        calibrate()
        c1 = time.thread_time()
        t1 = time.monotonic()
        self.starts.append(t0)
        self.ends.append(t1)
        self.cal.append(c1 - c0)
        self._busy = False

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _smoothed(self):
        half = SMOOTHING // 2
        n = len(self.cal)
        return [statistics.median(self.cal[max(0, i - half):min(n, i + half + 1)])
                for i in range(n)]

    def convert(self, a, b):
        """(reference seconds, measured seconds) of [a, b], probe time excluded.

        The work between two ticks is scaled by the speed measured at the
        tick that ends it; the tail after the last tick by the last speed.
        """
        if not self.cal:
            raise RuntimeError("the speed probe has not ticked yet")
        smooth = self._smoothed()
        n = len(smooth)
        ref = measured = 0.0
        cursor = a
        for i in range(bisect.bisect_left(self.ends, a), n + 1):
            tail = i == n or self.starts[i] > b
            seg = max(0.0, (b if tail else self.starts[i]) - cursor)
            measured += seg
            ref += seg * REFERENCE_S / smooth[min(i, n - 1)]
            if tail:
                break
            cursor = max(cursor, min(self.ends[i], b))
        return ref, measured

    def probe_seconds(self, a, b):
        """Probe time that falls inside [a, b]."""
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in zip(self.starts, self.ends))
