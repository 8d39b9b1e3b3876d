"""Host speed sampling, so that CPU times do not follow the neighbours' load.

On a shared host the same work costs different CPU time from one minute to
the next: a neighbour on the sibling hyperthread slows every instruction,
and CPU time counts the slow instructions in full.  On the 2-CPU host the
benchmark was tuned on, a fixed pure-Python loop took 4.5 ms in some
seconds and 8.5 ms in others, and ten repeats of one limit-check spread
over 12% of their median in CPU time.

While a measured window is open, a wall-clock timer interrupts the program
every ``PERIOD`` seconds and times ``kernel`` on the thread CPU clock.  The
kernel's time against ``K_REF`` is the host's relative speed at that moment.
A window's normalized CPU is its CPU time, less the kernel's own, times the
mean relative speed over its samples: CPU seconds at the speed at which the
kernel takes ``K_REF``.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD = 0.05
# CPU seconds of one kernel call when no neighbour competes for the core
# (Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6); it fixes the unit
# of the normalized times, not their ratios.
K_REF = 6.5e-4

_VEC = np.linspace(0.0, 1.0, 1 << 15)
_OUT = np.empty_like(_VEC)
_ROW = np.linspace(0.0, 1.0, 64)


def kernel() -> None:
    """The three kinds of work rwre does, in the proportions that tracked
    its slow-downs best: an interpreted loop, small numpy calls and one
    pass over an array."""
    acc = 0.0
    for i in range(1500):
        acc += math.log(1.0 + (i % 97) * 0.01)
    for i in range(80):
        np.searchsorted(_ROW, (i % 64) / 64.0)
        _ROW.sum()
    np.multiply(_VEC, 1.0001, out=_OUT)
    np.cumsum(_OUT, out=_OUT)
    np.sqrt(_OUT, out=_OUT)


class SpeedSampler:
    """Kernel timings taken while a window is open."""

    def __init__(self):
        self.samples: list[float] = []

    def _handler(self, signum, frame):
        c0 = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - c0)

    def open(self) -> int:
        """Arm the timer; returns the sample index the window starts at."""
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return len(self.samples)

    def close(self, start: int) -> list[float]:
        """Disarm the timer; returns the window's kernel timings."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples[start:]


def normalized(cpu: float, samples: list[float]) -> float:
    """CPU seconds at reference speed for ``cpu`` seconds measured with the
    kernel ``samples`` inside them (their own time is taken out)."""
    if not samples:
        return cpu
    speed = sum(K_REF / k for k in samples) / len(samples)
    return (cpu - sum(samples)) * speed
