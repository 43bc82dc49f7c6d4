"""Oscillatory quadrature against the WKB phase (Chebyshev-Levin collocation).

The WKB phase psi(tau) = integral of f from the mode's tau0 does not
oscillate: it is smooth on a smooth scale and linear between the
breakpoints of a piecewise-constant one, where the panels are cut.  So
integrals of F_j(tau) exp(i omega_j psi(tau)) need not resolve the
oscillation.  On each panel [a, b] the Levin equation p' + i omega f p = F
has a slowly varying solution, found by collocation at Chebyshev points,
and the panel integral is [p exp(i omega psi)] from a to b (Levin, Math.
Comp. 1982; Iserles & Norsett, Proc. R. Soc. A 2005).  Components with
omega = 0, and the phase increment, use Clenshaw-Curtis weights on the same
nodes.  ``model.panel_walk`` refines the panels, so the cost follows the
smoothness of R and F, not the number of periods.  One walk gives a sum per
piece of [lo, hi]: the exact integrals on a piecewise-constant scale, once
``projector._segments`` conjugates each by its segment's constant.
"""

from __future__ import annotations

import numpy as np

from .evolution import accumulated_phase, frequency, leg_plan
from .model import _D, _W, _X, G_FLOOR, NODES, Mode, ScaleFunction, chebyshev_tail, panel_walk


def _solve(mats, rhs):
    """``np.linalg.solve`` over a stack, NaN where a member is singular."""
    try:
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError:
        return (np.array([_solve(m, b) for m, b in zip(mats, rhs)], dtype=complex)
                if mats.ndim > 2 else np.full(rhs.shape, np.nan))


def levin_integral(mode: Mode, scale: ScaleFunction, integrand, omegas,
                   lo: float, hi: float, tol: float) -> np.ndarray:
    """integral over [lo, hi] of integrand(t, r)[j] * exp(i omegas[j] psi(t)),
    one row per piece of ``scale.pieces(lo, hi)`` (one row on a smooth scale).

    psi is the frequency integral from ``mode.tau0``; r the scale value at t
    (on a piecewise scale, its segment's).  The pieces of the legs of
    ``evolution.leg_plan``, directed away from their common anchor, are the
    intervals of one ``model.panel_walk``, so ``integrand(ts, rs)`` is called
    once per round with the flat node times and scale values of its panels,
    and returns their (nodes, len(omegas)) array.  The walk's S is the largest
    |integrand| on its first round's nodes, its floor ``G_FLOOR`` r_max the
    largest |integrand / r| there: each integrand is R times a bounded
    amplitude, and R = r_max g carries g's rounding.  A panel's estimate is its
    width times ``model.chebyshev_tail`` of F plus, where omega != 0, that of
    the collocation solution p (NaN where the system is singular, which fails
    the panel).  The phase increment is not tested (f is smooth in R).
    """
    omegas = np.asarray(omegas, dtype=float)
    osc = omegas != 0.0
    cuts = [b for _, b, _ in scale.pieces(lo, hi)]  # each piece's upper end
    legs = [(anchor, end, 1 if end > anchor else -1)
            for anchor, (end,) in leg_plan(mode.tau0, (lo, hi))]
    # each leg's pieces directed away from the anchor, with their segment's R (NaN
    # where R varies): scale.value, right-continuous, reads the next one's at an end
    start, stop, r, leg = np.array(
        [(*(x, y)[::sign], np.nan if value is None else value, j)
         for j, (anchor, end, sign) in enumerate(legs)
         for x, y, value in scale.pieces(min(anchor, end), max(anchor, end))[::sign]],
        dtype=float).reshape(-1, 4).T

    def panel(a, b, seed):
        """([local integrals with psi(a) = 0, psi increments], err, (size, floor))
        of the panels [a, b], R = r on each, or the scale's where r is NaN."""
        h = 0.5 * (b - a)[:, None]
        ts = 0.5 * (a + b)[:, None] + h * _X
        rs = np.where(np.isnan(r[seed])[:, None], scale.value(ts), r[seed][:, None])
        f = frequency(mode, rs)
        vals = np.reshape(integrand(ts.ravel(), rs.ravel()),
                          (*ts.shape, omegas.size)).astype(complex)
        # one product per panel, rounding as for one panel (f @ _W would not)
        dpsi = h[:, 0] * np.matmul(_W, f[..., None])[:, 0]
        local, err = h * np.matmul(_W, vals), 2 * h * chebyshev_tail(vals)
        if osc.any():
            mats = (_D / h[..., None, None] + 1j * omegas[osc, None, None]
                    * (f[:, None, :, None] * np.eye(NODES)))
            p = _solve(mats, vals[..., osc].transpose(0, 2, 1)[..., None])[..., 0]
            local[:, osc] = (p[..., 0] * np.exp(1j * omegas[osc] * dpsi[:, None])
                             - p[..., -1])
            err[:, osc] += chebyshev_tail(p.transpose(0, 2, 1))
        return [local, dpsi], err, lambda: np.stack(  # (size, floor), in the first round only
            [np.abs(vals).max(axis=(1, 2)),
             G_FLOOR * scale.r_max * (np.abs(vals) / rs[..., None]).max(axis=(1, 2))], axis=1)

    seed, (local, dpsi) = panel_walk(panel, start, stop, 0, tol, "levin_integral")
    psi = accumulated_phase(mode, scale, mode.tau0, legs[0][0])
    piece = np.searchsorted(cuts[:-1], np.minimum(start, stop)[seed], side="right")
    rows = np.zeros((len(legs), len(cuts), omegas.size), dtype=complex)
    for j, (_, _, sign) in enumerate(legs):
        on = leg[seed] == j
        # psi at the panel ends in leg order; a panel's lower end is first going up
        psis = np.cumsum(np.concatenate([[psi], sign * dpsi[on]]))
        phases = np.exp(1j * omegas * (psis[:-1] if sign > 0 else psis[1:])[:, None])
        np.add.at(rows[j], piece[on], phases * local[on])  # summed in leg order
    return rows.sum(axis=0)
