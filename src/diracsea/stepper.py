"""Embedded Dormand-Prince 5(4) stepper with structure-restoring hooks.

This is the single adaptive controller behind the exact evolution, the WKB
phase accumulation, and every exact-route integral (the smooth-scale WKB
integrals use ``levin`` instead): quadratures ride along as augmented
state components so one error budget covers propagator and integral
alike.  Two features the stock library solvers lack drive the
hand-rolled implementation:

* a state-dependent step ceiling (h <= 0.1 / frequency: at most 0.1 rad of
  phase, about 1/63 of an oscillation period, per step; callers may ask
  for finer) so oscillations are always resolved, independently of how
  optimistic the controller gets;
* a post-acceptance projection hook, used to restore unitarity (polar
  decomposition) or frame orthogonality after every accepted step.

The fifth-order solution is propagated; the embedded fourth-order solution
provides the local error estimate, measured in the usual mixed
absolute/relative norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationFailure

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.2  # 1 / (embedded order + 1)


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evaluations: int = 0


def integrate(rhs: Callable, t0: float, t1: float, y0,
              rtol: float, atol: float,
              max_step: Callable[[float], float] | None = None,
              post_accept: Callable | None = None,
              stats: StepStats | None = None):
    """Integrate y' = rhs(t, y) from t0 to t1; returns the final state.

    ``max_step`` maps t to a step ceiling; ``post_accept(t, y)`` may return
    a replacement state (projection back onto the invariant manifold).
    State vectors are complex; real problems simply carry zero imaginary
    parts.
    """
    y = np.array(y0, dtype=complex)
    if t1 == t0:
        return y
    if stats is None:
        stats = StepStats()
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    t = t0
    h = min(1e-3 * max(span, 1.0), span)
    if max_step is not None:
        h = min(h, max_step(t0))
    k = [None] * 7
    tiny = 1e-15 * max(abs(t0), abs(t1), 1.0)

    while (t1 - t) * direction > tiny:
        if max_step is not None:
            h = min(h, max_step(t))
        h = min(h, abs(t1 - t))
        if h < 1e-14 * max(abs(t), 1.0):
            raise IntegrationFailure("step size underflow", t=t)
        hd = direction * h

        k[0] = rhs(t, y)
        for i in range(1, 7):
            acc = _A[i][0] * k[0]
            for j in range(1, i):
                aij = _A[i][j]
                if aij != 0.0:
                    acc = acc + aij * k[j]
            k[i] = rhs(t + _C[i] * hd, y + hd * acc)
        stats.rhs_evaluations += 7

        y_new = y + hd * (_B5[0] * k[0] + _B5[2] * k[2] + _B5[3] * k[3]
                          + _B5[4] * k[4] + _B5[5] * k[5])
        err = hd * (_ERR[0] * k[0] + _ERR[2] * k[2] + _ERR[3] * k[3]
                    + _ERR[4] * k[4] + _ERR[5] * k[5] + _ERR[6] * k[6])

        if not np.all(np.isfinite(y_new)):
            raise IntegrationFailure(
                "non-finite state encountered", t=t,
                diagnostic={"h": h, "y_max": float(np.max(np.abs(y)))})

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))

        if err_norm <= 1.0:
            t = t + hd
            y = y_new
            if post_accept is not None:
                y = post_accept(t, y)
            stats.accepted += 1
            factor = _MAX_FACTOR if err_norm == 0.0 else \
                min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -_ORDER_EXP))
        else:
            stats.rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err_norm ** -_ORDER_EXP)
        h = h * factor
    return y


def integrate_with_checkpoints(rhs, t0: float, checkpoints: Sequence[float], y0,
                               rtol: float, atol: float,
                               max_step=None, post_accept=None,
                               stats: StepStats | None = None):
    """Integrate through a monotone sequence of times, yielding each state.

    Checkpoints must be monotone in the direction away from ``t0`` (equal
    consecutive entries are allowed).  Returns the list of states, one per
    checkpoint; a checkpoint equal to the current time repeats the state.
    """
    states = []
    y = np.array(y0, dtype=complex)
    for t, tc in zip([t0, *checkpoints], checkpoints):
        y = integrate(rhs, t, tc, y, rtol=rtol, atol=atol,
                      max_step=max_step, post_accept=post_accept, stats=stats)
        states.append(y.copy())
    return states
