"""Oscillatory quadrature against the WKB phase (Chebyshev-Levin collocation).

On a smooth scale the WKB phase psi(tau) = integral of f from the mode's
tau0 is itself smooth and non-oscillatory, so integrals of the form

    integral over [lo, hi] of F_j(tau) exp(i omega_j psi(tau)) dtau

need not resolve the oscillation.  On each panel [a, b] the Levin equation
p' + i omega f p = F has a slowly varying solution, found by collocation
at Chebyshev points, and the panel integral is [p exp(i omega psi)] from a
to b (Levin, Math. Comp. 1982; Iserles & Norsett, Proc. R. Soc. A 2005).
Components with omega = 0, and the phase increment itself, use
Clenshaw-Curtis weights on the same nodes.  Each panel is accepted when it
agrees with the sum over its two halves; otherwise the halves are refined.
The cost follows the smoothness of R and F, not the number of periods.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure
from .evolution import accumulated_phase, frequency
from .model import Mode, ScaleFunction

#: Chebyshev-Lobatto nodes per panel.
NODES = 12
#: Widest initial panel.
MAX_PANEL = 0.25
#: Panels a single integral may test before giving up.
MAX_PANELS = 2000


def _chebyshev(n: int):
    """Lobatto nodes cos(pi k / n) (descending), differentiation matrix, CC weights."""
    k = np.arange(n + 1)
    x = np.cos(np.pi * k / n)
    c = np.where((k == 0) | (k == n), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    theta = np.pi * k[1:-1] / n
    v = np.ones(n - 1)
    for j in range(1, n // 2 + 1):
        b = 1.0 if 2 * j == n else 2.0
        v -= b * np.cos(2 * j * theta) / (4 * j * j - 1)
    w = np.empty(n + 1)
    w[0] = w[-1] = 1.0 / (n * n - 1) if n % 2 == 0 else 1.0 / (n * n)
    w[1:-1] = 2.0 * v / n
    return x, d, w


_X, _D, _W = _chebyshev(NODES - 1)


def levin_integral(mode: Mode, scale: ScaleFunction, integrand, omegas,
                   lo: float, hi: float, tol: float) -> np.ndarray:
    """integral over [lo, hi] of integrand(t, r)[j] * exp(i omegas[j] psi(t)).

    psi is the frequency integral from ``mode.tau0``; r the scale value at
    t.  The leg rule is ``projector.interval_integral``'s: from a tau0
    inside [lo, hi] the sweeps run out to both ends, otherwise psi is
    carried to the nearer end first.

    A panel is accepted when every component moves by at most ``tol`` per
    unit tau (relative to its largest node value, floored at 1) between
    the panel and its two halves.  The phase increment is not tested on
    its own: f is a smooth function of R, as the callers' integrands are,
    and near a vanishing R its relative rounding (of 1 - cos tau for dust,
    say) can exceed tol.  Raises ``ConvergenceFailure`` once ``MAX_PANELS``
    panels were tested without covering [lo, hi], or when a panel too
    narrow to split still fails the test: a truncated sum is never
    returned.
    """
    omegas = np.asarray(omegas, dtype=float)
    osc = omegas != 0.0
    tested = 0

    def panel(a, b):
        """(local integral with psi(a) = 0, psi increment, node maxima)."""
        h = 0.5 * (b - a)
        ts = 0.5 * (a + b) + h * _X
        rs = [scale.value(t) for t in ts]
        f = np.array([frequency(mode, r) for r in rs])
        vals = np.array([integrand(t, r) for t, r in zip(ts, rs)], dtype=complex)
        dpsi = h * (_W @ f)
        local = h * (_W @ vals)
        if osc.any():
            mats = _D / h + 1j * omegas[osc, None, None] * np.diag(f)
            p = np.linalg.solve(mats, vals[:, osc].T[..., None])[..., 0]
            local[osc] = p[:, 0] * np.exp(1j * omegas[osc] * dpsi) - p[:, -1]
        return local, dpsi, np.abs(vals).max(axis=0)

    def leg(anchor, end, psi):
        """Sum over [anchor, end] (either order), psi known at the anchor."""
        nonlocal tested
        total = np.zeros(omegas.size, dtype=complex)
        sign = 1.0 if end > anchor else -1.0
        cuts = np.linspace(anchor, end, int(np.ceil(abs(end - anchor) / MAX_PANEL)) + 1)
        # (end nearer the anchor, far end, the panel's result if known)
        pending = [(x, y, None) for x, y in zip(cuts, cuts[1:])]
        while pending:
            near, far, whole = pending.pop(0)
            tested += 1
            if tested > MAX_PANELS:
                raise ConvergenceFailure(
                    f"oscillatory quadrature used {MAX_PANELS} panels "
                    f"before covering [{lo:.6g}, {hi:.6g}]")
            a, b = min(near, far), max(near, far)
            mid = 0.5 * (a + b)
            if whole is None:
                whole = panel(a, b)
            left, right = panel(a, mid), panel(mid, b)
            local = left[0] + np.exp(1j * omegas * left[1]) * right[0]
            dpsi = left[1] + right[1]
            size = np.maximum(np.max([whole[2], left[2], right[2]], axis=0), 1.0)
            err = np.abs(whole[0] - local)
            if not np.all(err <= tol * (b - a) * size):  # NaN fails too
                if b - a < 1e-12 * max(abs(a), 1.0):
                    raise ConvergenceFailure(
                        f"oscillatory quadrature panel underflow at tau={mid:.6g}")
                near_half, far_half = (left, right) if sign > 0 else (right, left)
                pending[:0] = [(near, mid, near_half), (mid, far, far_half)]
                continue
            psi_a = psi if sign > 0 else psi - dpsi
            total += np.exp(1j * omegas * psi_a) * local
            psi += sign * dpsi
        return total

    tau0 = mode.tau0
    if tau0 <= lo:
        return leg(lo, hi, accumulated_phase(mode, scale, tau0, lo))
    if tau0 >= hi:
        return leg(hi, lo, accumulated_phase(mode, scale, tau0, hi))
    return leg(tau0, hi, 0.0) + leg(tau0, lo, 0.0)
