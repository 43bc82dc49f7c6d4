"""Embedded Dormand-Prince 5(4) stepper with structure-restoring hooks.

This is the single adaptive controller behind the exact evolution on
smooth scales, the generator route to the WKB deviation, the rotation
frames, and every exact-route integral (the WKB integrals use ``levin``
instead).  Its one caller is ``evolution.cointegrate``, which calls
``integrate`` once per stop of a sweep and lets quadratures ride along as
augmented state components, so one error budget covers propagator and
integral alike.  Two features the stock library solvers
lack drive the hand-rolled implementation:

* a state-dependent step ceiling (h <= 0.1 / rate: the state turns by at
  most 0.1 rad, about 1/63 of a turn, per step, at the rate its transport
  states) so oscillations are always resolved, independently of how
  optimistic the controller gets;
* a post-acceptance projection hook, used to restore unitarity (polar
  decomposition) or frame orthogonality after every accepted step.

The fifth-order solution is propagated; the embedded fourth-order solution
provides the local error estimate, measured in the usual mixed
absolute/relative norm.  Each call keeps the seven stages in one (7, n)
buffer; a stage state is one product of a tableau row with it.  The
right-hand side, called once per stage, is copied into its stage's row,
so it may return a buffer it reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationFailure

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# Row i holds the stage weights a_ij (j < i); the last row equals the
# fifth-order weights b5, so the last stage state is the propagated solution.
_A = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
], dtype=complex)
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = (_A[6] - _B4).astype(complex)

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

    ``max_step`` maps t to a step ceiling; ``post_accept(t, y)``, run once
    per accepted step, returns the state to go on from (projection back onto
    the invariant manifold) and may overwrite y, the stepper's own array.
    State vectors are complex; real problems carry zero imaginary parts.
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
    k = np.empty((7, y.size), dtype=complex)
    tiny = 1e-15 * max(abs(t0), abs(t1), 1.0)

    while (t1 - t) * direction > tiny:
        if max_step is not None:
            h = min(h, max_step(t))
        h = min(h, abs(t1 - t))
        if h < 1e-14 * max(abs(t), 1.0):
            raise IntegrationFailure("step size underflow", t=t)
        hd = direction * h

        tableau = hd * _A
        k[0] = rhs(t, y)
        for i in range(1, 7):
            y_new = tableau[i, :i] @ k[:i]
            y_new += y
            k[i] = rhs(t + _C[i] * hd, y_new)
        stats.rhs_evaluations += 7

        if not np.isfinite(y_new).all():
            raise IntegrationFailure(
                "non-finite state encountered", t=t,
                diagnostic={"h": h, "y_max": float(np.max(np.abs(y)))})

        # mixed absolute/relative RMS norm of the embedded error estimate
        w = np.abs(_ERR @ k)
        w /= atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = h * math.sqrt((w @ w) / w.size)

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

