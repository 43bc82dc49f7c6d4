"""Oscillatory quadrature against the WKB phase (Chebyshev-Levin collocation).

The WKB phase psi(tau) = integral of f from the mode's tau0 does not
oscillate: it is smooth on a smooth scale and linear between the
breakpoints of a piecewise-constant one, where the panels are cut.  So
integrals of the form

    integral over [lo, hi] of F_j(tau) exp(i omega_j psi(tau)) dtau

need not resolve the oscillation.  On each panel [a, b] the Levin equation
p' + i omega f p = F has a slowly varying solution, found by collocation
at Chebyshev points, and the panel integral is [p exp(i omega psi)] from a
to b (Levin, Math. Comp. 1982; Iserles & Norsett, Proc. R. Soc. A 2005).
Components with omega = 0, and the phase increment itself, use
Clenshaw-Curtis weights on the same nodes, which ``model`` owns (its
``smooth_integrals`` is this rule without the phase).  A panel is accepted
when it agrees with the sum over its two halves, which are otherwise
refined in the next round, all in one batch.  The cost follows the
smoothness of R and F, not the number of periods.
One walk covers [lo, hi] with a sum per piece: on a piecewise-constant
scale the exact integrals are these sums, each conjugated by its segment's
constant (see ``projector._segments``).
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ConvergenceFailure
from .evolution import accumulated_phase, frequency, leg_plan
from .model import _D, _W, _X, MAX_PANEL, MAX_PANELS, NODES, Mode, ScaleFunction

log = logging.getLogger(__name__)


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

    psi is the frequency integral from ``mode.tau0``; r the scale value at
    t (on a piecewise scale, that of the segment holding the panel).  The
    legs are ``evolution.leg_plan``'s, psi known at each anchor.  Each leg
    is refined a round at a time: ``integrand(ts, rs)`` is called once per
    round with the flat arrays of the ``NODES`` times and scale values of
    all of its panels and halves, and returns the (nodes, k) array of the
    k components there.

    A panel is accepted when every component moves by at most ``tol`` per
    unit tau (relative to its largest node value, floored at 1) between
    the panel and its two halves, which otherwise go to the next round; a
    singular collocation system fails, as a NaN does.  The phase increment
    is not tested on its own: f is a smooth function of R, as the callers'
    integrands are, and near a vanishing R its relative rounding (of
    1 - cos tau for dust, say) can exceed tol.  Raises
    ``ConvergenceFailure`` before a round takes the panels tested past
    ``MAX_PANELS`` (one budget for [lo, hi]), or when a panel too narrow to
    split still fails (the first in leg order): a truncated sum is never
    returned.  A DEBUG line per call reports legs, panels tested and accepted.
    """
    omegas = np.asarray(omegas, dtype=float)
    osc = omegas != 0.0
    tested = accepted = 0
    cuts = [b for _, b, _ in scale.pieces(lo, hi)]  # each piece's upper end

    def panel(a, b, r):
        """(local integrals with psi(a) = 0, psi increments, node maxima) of
        the panels [a, b], R = r on each, or the scale's where r is NaN."""
        h = 0.5 * (b - a)[:, None]
        ts = 0.5 * (a + b)[:, None] + h * _X
        rs = np.where(np.isnan(r)[:, None], scale.value(ts), r[:, None])
        f = frequency(mode, rs)
        vals = np.reshape(integrand(ts.ravel(), rs.ravel()), (*ts.shape, -1)).astype(complex)
        # one product per panel, rounding as for one panel (f @ _W would not)
        dpsi = h[:, 0] * np.matmul(_W, f[..., None])[:, 0]
        local = h * np.matmul(_W, vals)
        if osc.any():
            mats = (_D / h[..., None, None] + 1j * omegas[osc, None, None]
                    * (f[:, None, :, None] * np.eye(NODES)))
            p = _solve(mats, vals[..., osc].transpose(0, 2, 1)[..., None])[..., 0]
            local[:, osc] = (p[..., 0] * np.exp(1j * omegas[osc] * dpsi[:, None])
                             - p[..., -1])
        return local, dpsi, np.abs(vals).max(axis=1)

    def leg(anchor, end, psi):
        """Sums over [anchor, end] (either order) per piece, psi known at the anchor."""
        nonlocal tested, accepted
        sign = 1 if end > anchor else -1
        # A round's panels [a, b], ascending, cut from the end nearer the anchor,
        # with R if constant there (else NaN: a piece's None as a float).  Panels
        # stop at breakpoints and carry their segment's R: scale.value, right-
        # continuous, would read the next segment's at a panel's upper end node.
        pieces = []
        for x, y, value in scale.pieces(min(anchor, end), max(anchor, end)):
            c = np.linspace(*(x, y)[::sign], int(np.ceil((y - x) / MAX_PANEL)) + 1)[::sign]
            pieces.append((c[:-1], c[1:], np.full(c.size - 1, value, dtype=float)))
        (a, b, r), whole = map(np.concatenate, zip(*pieces)), None
        done = [(a[:0], np.zeros((0, omegas.size), dtype=complex), a[:0])]
        while a.size:
            if tested + a.size > MAX_PANELS:
                raise ConvergenceFailure(f"oscillatory quadrature used {MAX_PANELS} panels "
                                         f"before covering [{lo:.6g}, {hi:.6g}]")
            tested += a.size
            mid = 0.5 * (a + b)
            ends = [(a, mid), (mid, b)] if whole else [(a, b), (a, mid), (mid, b)]
            parts = [x.reshape(len(ends), a.size, *x.shape[1:]) for x in
                     panel(*map(np.concatenate, zip(*ends)), np.tile(r, len(ends)))]
            if whole:
                parts = [np.concatenate([w[None], x]) for w, x in zip(whole, parts)]
            (w_local, l_local, r_local), (_, l_dpsi, r_dpsi), sizes = parts
            local = l_local + np.exp(1j * omegas * l_dpsi[:, None]) * r_local
            err, size = np.abs(w_local - local), np.maximum(sizes.max(axis=0), 1.0)
            ok = np.all(err <= tol * (b - a)[:, None] * size, axis=1)  # NaN fails too
            narrow = ~ok & (b - a < 1e-12 * np.maximum(np.abs(a), 1.0))
            if narrow.any():
                raise ConvergenceFailure("oscillatory quadrature panel underflow "
                                         f"at tau={mid[narrow][::sign][0]:.6g}")
            done.append((a[ok], local[ok], (l_dpsi + r_dpsi)[ok]))
            # the failed panels' halves in order, their results known
            a, b = (np.stack(e, axis=1)[~ok].ravel() for e in zip(*ends[-2:]))
            r = np.repeat(r[~ok], 2)
            whole = [np.swapaxes(x[-2:], 0, 1)[~ok].reshape(-1, *x.shape[2:]) for x in parts]
        at, local, dpsi = map(np.concatenate, zip(*done))
        order = np.argsort(sign * at)
        accepted += order.size
        # psi at the panel ends in leg order; a panel's lower end is first going up
        psis = np.cumsum(np.concatenate([[psi], sign * dpsi[order]]))
        phases = np.exp(1j * omegas * (psis[:-1] if sign > 0 else psis[1:])[:, None])
        rows = np.zeros((len(cuts), omegas.size), dtype=complex)  # summed in leg order
        np.add.at(rows, np.searchsorted(cuts[:-1], at[order], side="right"),
                  phases * local[order])
        return rows

    legs = [leg(anchor, end, accumulated_phase(mode, scale, mode.tau0, anchor))
            for anchor, (end,) in leg_plan(mode.tau0, (lo, hi))]
    if log.isEnabledFor(logging.DEBUG):
        log.debug("levin_integral: %d legs, %d panels tested, %d accepted",
                  len(legs), tested, accepted)
    return sum(legs[1:], legs[0])
