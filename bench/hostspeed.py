"""Host-speed sampling, so that round times can be compared across runs.

On a shared host the same work runs at a speed that drifts by 10-15% over
a minute and by up to 2x over tenths of a second, and CPU time drifts with
wall time.  Repeating rounds removes the short bursts but not the drift.
While a round runs, a timer interrupts it every ``PERIOD_S`` and times a
fixed calibration kernel that shares no code with coopic; the time spent in
the kernel is subtracted from the round.  A round's normalized time is its
wall time scaled by ``REFERENCE_S`` over the harmonic mean of its kernel
times, i.e. the wall time the round would take at the reference speed.  The
harmonic mean matches the mean host speed over the round, which is what the
round's wall time depends on, and it is not dragged up by the rare kernel
run that is descheduled.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# Kernel time at the reference speed: about its typical time on an idle
# 2-vCPU host with Python 3.11 and numpy 2.4.
REFERENCE_S = 1.0e-3

_ARRAY = np.linspace(0.0, 1.0, 8192)
_MATRIX = np.array([[2.0, 0.3], [0.3, 1.5]])
_VECTOR = np.array([1.0, 1.4])


def calibration_kernel() -> float:
    """Fixed work in the three styles coopic's layers use: scalar float
    arithmetic, 2x2 linear algebra through numpy, and vectorized array math."""
    acc = 0.0
    for i in range(1500):
        acc += math.log1p(i * 0.5) / (1.0 + (i & 7))
    for i in range(30):
        m = _MATRIX + np.outer(_VECTOR, _VECTOR) * (i * 0.01)
        acc += float(np.linalg.det(m)) + float(_VECTOR @ np.linalg.solve(m, _VECTOR))
    for _ in range(6):
        acc += float(np.log1p(_ARRAY * (acc % 3.0)).sum())
    return acc


class Sampler:
    """Times the calibration kernel on a timer while a round runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        calibration_kernel()  # untimed pass: refill the caches the round evicted
        t1 = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - t1)
        self._busy = False
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the block; ``samples`` and ``spent`` cover only it."""
        self.samples, self.spent = [], 0.0
        self._tick(None, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_s(self) -> float:
        return statistics.harmonic_mean(self.samples)

    def normalized(self, wall_s: float) -> float:
        return wall_s * REFERENCE_S / self.kernel_s()
