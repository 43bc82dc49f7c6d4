"""Host-speed calibration of the benchmark's timings.

The benchmark runs on vCPUs shared with other tenants, and the host's
speed moves: a fixed 0.35 s task took anywhere from 0.20 to 0.46 s within
one minute, with its CPU time equal to its wall time (the process is not
descheduled; the core runs it slower), and the median over a minute moved
by 16 % between minutes.  The speed flips between states that last about
a second: a 0.3 ms ``causal_classify`` call took 0.24 or 0.40 ms.  Raw
wall times of runs minutes apart therefore differ by more than any
regression worth catching.

So every timing is also reported in *reference seconds*.  A burst is a
fixed piece of work of the same kind as the package's hot loop (an
embedded Dormand-Prince 5(4) integration of a driven 2x2 unitary with a
polar projection after each accepted step, in small numpy arrays), written
here and never changed, so that it does not move when the package does.

A burst takes about 6 ms, short enough to run often.  While the tasks
run, a ``Sampler`` runs one from a timer signal about every ``PERIOD_S``
seconds, in the tasks' own thread, so that bursts sample the host's speed
evenly in time, inside long tasks too.  The time spent in
bursts is taken out of every wall time.  A task's time is scaled by
``REF_BURST_S`` over the median time of the bursts that ran during it and
of the ``NEIGHBOURS`` bursts just before and just after it: it reads what
the task would take on a host that runs a burst in ``REF_BURST_S``.
Scaled by bursts run right beside them, the medians of 20 such calls
varied by 0.12 (interquartile range over median) instead of 0.57 over a
minute.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
from time import perf_counter

import numpy as np

#: Burst time of the reference host: about the median burst on 2 shared
#: vCPUs (Python 3.11, numpy 2.4) at the time the benchmark was defined.
REF_BURST_S = 0.0065
#: Mean time between bursts; each gap is drawn from [0.5, 1.5] times it.
PERIOD_S = 0.1
#: Bursts before and after a task that count towards its scale factor.
NEIGHBOURS = 2

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))
_H0 = np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
_H1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rhs(t, y):
    h = _H0 * (1.0 + 0.5 * np.cos(t)) + _H1 * np.sin(3.0 * t)
    return -1j * (h @ y.reshape(2, 2)).ravel()


def _work(t1=1.2, rtol=1e-8, atol=1e-10) -> int:
    """The burst's work: integrate to ``t1``; returns the accepted steps."""
    y = np.eye(2, dtype=complex).ravel()
    t, h, steps = 0.0, 1e-3, 0
    while t1 - t > 1e-12:
        h = min(h, t1 - t, 0.1)
        k = [_rhs(t, y)]
        for i in range(1, 7):
            acc = _A[i][0] * k[0]
            for j in range(1, i):
                if _A[i][j] != 0.0:
                    acc = acc + _A[i][j] * k[j]
            k.append(_rhs(t + _C[i] * h, y + h * acc))
        y_new = y + h * sum(b * kk for b, kk in zip(_B5, k) if b != 0.0)
        err = h * sum(e * kk for e, kk in zip(_E, k) if e != 0.0)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))
        if err_norm <= 1.0:
            t += h
            u, _, vh = np.linalg.svd(y_new.reshape(2, 2))
            y = (u @ vh).ravel()
            steps += 1
        h *= min(5.0, max(0.2, 0.9 * max(err_norm, 1e-10) ** -0.2))
    return steps


def burst() -> float:
    """Run one burst; its wall time in seconds."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def scaled_once(raw_s: float, bursts: int = 15) -> float:
    """``raw_s`` in reference seconds, from bursts run right after it.

    The first burst warms the kernel up and is not used.
    """
    burst()
    return raw_s * REF_BURST_S / statistics.median(burst() for _ in range(bursts))


class Sampler:
    """Bursts on a timer while the tasks run; each one's start and time."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts = []
        self.times = []
        self._rng = random.Random(0)

    def _burst(self) -> None:
        t0 = perf_counter()
        _work()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def _fire(self, signum, frame) -> None:
        self._burst()
        signal.setitimer(signal.ITIMER_REAL,
                         self.period * self._rng.uniform(0.5, 1.5))

    @contextlib.contextmanager
    def running(self):
        """Bursts on the timer inside the block, ``NEIGHBOURS`` before and after."""
        for _ in range(NEIGHBOURS):
            self._burst()
        previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(NEIGHBOURS):
            self._burst()

    def spent(self, t0: float, t1: float) -> float:
        """Time of the bursts that started in ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(self.times[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """Scale factor of a task that ran from ``t0`` to ``t1``."""
        lo = max(0, bisect.bisect_left(self.starts, t0) - NEIGHBOURS)
        hi = bisect.bisect_right(self.starts, t1) + NEIGHBOURS
        return REF_BURST_S / statistics.median(self.times[lo:hi])

    def speed(self) -> float:
        """Median burst time, as a share of ``REF_BURST_S``."""
        return statistics.median(self.times) / REF_BURST_S
