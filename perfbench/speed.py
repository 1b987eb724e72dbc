"""Speed of the machine, sampled while the benchmark's timed parts run.

The speed of a shared machine drifts by a third and more, in bursts of
a second and in phases of minutes, for all code alike.  A Speedometer
samples it while a part of a worker runs: a timer signal interrupts the
part every SAMPLE_PERIOD_S and times a fixed calibration job (about
1 ms) in the handler; the job also runs once at the start and once at
the end.  The parent scales the part's time by REFERENCE_S / speed(),
which gives the time the part would take on a machine that runs the
job in REFERENCE_S.  The time spent in the handler is counted in
paused and taken out of every timing.

The calibration job never calls the library, so a change to the library
does not change its time, and the collector is off while it runs, so
its time does not depend on the size of the library's heap.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# time of the calibration job on the reference machine
REFERENCE_S = 0.001
CALIBRATION_ITERATIONS = 200
SAMPLE_PERIOD_S = 0.05


def calibration_job():
    """Fixed pure-Python work of the kind the library does (Fractions,
    dicts keyed by sorted tuples)."""
    acc = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = tuple(sorted((i % 7, i % 5, i % 3, i % 2)))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 - 5, 1 + i % 4)
    return acc


class Speedometer:
    """Samples the calibration job's time while a part runs; use it as
    a context manager, or call start() and stop()."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        self._old = None

    def sample(self, *_):
        t0 = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            calibration_job()
        finally:
            if was_enabled:
                gc.enable()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.paused += took

    def start(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    __enter__ = start

    def __exit__(self, *exc):
        self.stop()
        return False

    def speed(self):
        """Mean time of the calibration job, in seconds."""
        return statistics.fmean(self.samples)
