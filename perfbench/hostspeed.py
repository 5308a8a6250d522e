"""Host-speed calibration of a timed pass.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third over tens of seconds, for every process alike.  A pass therefore
samples the host's speed while it runs: a timer interrupts it every
PERIOD_S and runs a fixed slice of pure-Python work (fractions, dict and
tuple traffic, like the package's own) with the garbage collector off, so
that the slice does not depend on the program's heap.  The slices' time is
taken out of the pass's time, and each stretch of work between two slices
is scaled by REFERENCE_S over the mean of those two slices:

    normalized = sum(work_i * REFERENCE_S / mean(slice_before_i, slice_after_i))

A change to the program moves the work and not the slices, so the
normalized time moves with the program and much less with the host.
"""

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
# Time of one slice at the reference speed: about its median on a 2-vCPU
# x86-64 VM under CPython 3.11, so normalized seconds read close to wall
# seconds there.
REFERENCE_S = 0.004
SLICE_STEPS = 1000


def slice_work(steps=SLICE_STEPS):
    table = {}
    total = Fraction(0)
    for i in range(steps):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return total, len(table)


class Sampler:
    """Interrupts the calling thread every ``period`` seconds to time one
    slice.  ``work_clock`` is perf_counter minus the time spent in slices."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []  # (work clock at the slice, slice seconds)
        self.paused = 0.0
        self._previous = None

    def work_clock(self):
        return time.perf_counter() - self.paused

    def _sample(self):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            slice_work()
        finally:
            end = time.perf_counter()
            if enabled:
                gc.enable()
        self.samples.append((start - self.paused, end - start))
        self.paused += end - start

    def _on_alarm(self, signum, frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def work_s(self):
        """Work time between the first and the last slice."""
        return self.samples[-1][0] - self.samples[0][0]

    def normalized(self):
        """Work time between the first and the last slice, scaled to the
        reference speed stretch by stretch."""
        return sum(
            (w1 - w0) * REFERENCE_S * 2 / (s0 + s1)
            for (w0, s0), (w1, s1) in zip(self.samples, self.samples[1:])
        )
