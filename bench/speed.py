"""Machine speed, sampled while the program runs, to report times at a
reference speed.

The shared VM this benchmark was tuned on (2 vCPUs of an Intel Xeon)
switches between a fast and a slow mode several times a second: a fixed
pure-Python kernel runs at one of two speeds about 2x apart, in CPU time as
much as in wall time, and the same batch of work took from 8 to 12 s in
runs minutes apart.  Samples taken only between ops miss the switches inside a
long op, so ``SpeedMeter`` runs a small ``Fraction`` kernel from a SIGALRM
handler every ``PERIOD_S`` seconds and keeps when each run started and how
long it took.  ``reference_seconds`` turns a measured interval into seconds
at the reference speed: the interval less the kernel runs inside it, times
the mean over those runs of ``REFERENCE_KERNEL_S`` / kernel time (the runs
nearest the interval when it holds none).  The kernel runs no flipbraid
code, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

from check import mat_mul

PERIOD_S = 0.02
REFERENCE_KERNEL_S = 0.0003   # about its mean time on that VM
KERNEL = [[Fraction((r * 7 + c * 3) % 11 - 5, (r + c) % 4 + 1)
           for c in range(4)] for r in range(4)]


def kernel_seconds() -> float:
    start = time.perf_counter()
    mat_mul(KERNEL, KERNEL)
    return time.perf_counter() - start


class SpeedMeter:
    """Samples the kernel on a timer while the ``with`` block runs."""

    def __init__(self):
        self.starts = []
        self.seconds = []

    def _sample(self, signum=None, frame=None):
        self.starts.append(time.perf_counter())
        self.seconds.append(kernel_seconds())

    def __enter__(self):
        kernel_seconds()  # warm-up, discarded
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def reference_seconds(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.seconds[lo:hi]
        near = inside or self.seconds[max(lo - 1, 0):lo + 1]
        speed = sum(REFERENCE_KERNEL_S / s for s in near) / len(near)
        return (t1 - t0 - sum(inside)) * speed
