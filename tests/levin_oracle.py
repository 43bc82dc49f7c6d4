"""The depth-first Levin walk: the oracle of ``levin.levin_integral``.

Production walks both legs a refinement round at a time in one
``model.panel_walk``, every pending panel of a round evaluated in one
batch.  Here a first pass evaluates every initial panel, one at a time,
for the rule's S and floor; then each panel is evaluated on its own and
refined depth first, its pieces tested before the next panel, and each
accepted panel is added, as it is met, to the row of the piece of
``scale.pieces(lo, hi)`` that holds it.  With S and the floor fixed first,
a panel's acceptance and its cut depend on that panel alone, so both walks
build the same refinement tree and sum the same panels in the same (leg)
order: their results must agree bit for bit, and so must their tested and
accepted counts and the error bound they log.
"""

import numpy as np

from diracsea.errors import ConvergenceFailure
from diracsea.evolution import accumulated_phase, frequency, leg_plan
from diracsea.model import (_D, _W, _X, G_FLOOR, MAX_PANEL, MAX_PANELS, NODES,
                            chebyshev_tail)


def levin_integral_depth_first(mode, scale, integrand, omegas, lo, hi, tol):
    """(per-piece integrals, panels tested, panels accepted, error bound); the
    arguments are ``levin_integral``'s, the integrand called once per panel."""
    omegas = np.asarray(omegas, dtype=float)
    osc = omegas != 0.0
    tested = 0
    errs = []  # the accepted panels' error estimates, in leg order
    starts = [a for a, _, _ in scale.pieces(lo, hi)]

    def panel(a, b, r):
        """(local integral with psi(a) = 0, psi increment, error estimate, size, floor)."""
        h = 0.5 * (b - a)
        ts = 0.5 * (a + b) + h * _X
        rs = np.full(ts.shape, scale.value(ts) if r is None else r)
        f = frequency(mode, rs)
        vals = np.asarray(integrand(ts, rs), dtype=complex)
        dpsi = h * (_W @ f)
        local, err = h * (_W @ vals), 2 * h * chebyshev_tail(vals)
        if osc.any():
            mats = _D / h + 1j * omegas[osc, None, None] * np.diag(f)
            try:
                p = np.linalg.solve(mats, vals[:, osc].T[..., None])[..., 0]
            except np.linalg.LinAlgError:
                p = np.full((osc.sum(), ts.size), np.nan)
            local[osc] = p[:, 0] * np.exp(1j * omegas[osc] * dpsi) - p[:, -1]
            err[osc] += chebyshev_tail(p.T)
        size = np.abs(vals)
        return (local, dpsi, err, size.max(),
                G_FLOOR * scale.r_max * (size / rs[:, None]).max())

    def cut(near, far, count, r):
        """[near, far] in ``count`` equal panels (near, far, r), in leg order."""
        a, b = min(near, far), max(near, far)
        ends = np.linspace(a, b, count + 1)
        pieces = [(x, y, r) for x, y in zip(ends, ends[1:])]
        return pieces if far > near else [(y, x, r) for x, y, r in pieces[::-1]]

    def seeds(anchor, end):
        """The leg's initial panels (near, far, r), in leg order."""
        sign = 1.0 if end > anchor else -1.0
        pending = []
        for a, b, r in scale.pieces(min(anchor, end), max(anchor, end))[::int(sign)]:
            near, far = (a, b) if sign > 0 else (b, a)
            cuts = np.linspace(near, far, int(np.ceil((b - a) / MAX_PANEL)) + 1)
            pending += [(x, y, r) for x, y in zip(cuts, cuts[1:])]
        return pending

    legs = [(anchor, end, seeds(anchor, end)) for anchor, (end,) in leg_plan(mode.tau0, (lo, hi))]
    # the first round: every initial panel, for S and the floor
    s = floor = 0.0
    for *_, pending in legs:
        for near, far, r in pending:
            *_, size, size_floor = panel(min(near, far), max(near, far), r)
            s, floor = np.fmax(s, size), np.fmax(floor, size_floor)

    def leg(anchor, end, pending, psi):
        nonlocal tested
        total = np.zeros((len(starts), omegas.size), dtype=complex)
        sign = 1.0 if end > anchor else -1.0
        while pending:
            near, far, r = pending.pop(0)
            tested += 1
            if tested > MAX_PANELS:
                raise ConvergenceFailure(
                    f"levin_integral used {MAX_PANELS} panels "
                    f"before covering [{lo:.6g}, {hi:.6g}]")
            a, b = min(near, far), max(near, far)
            local, dpsi, err, *_ = panel(a, b, r)
            bar = (tol * s + floor) * (b - a)
            if not np.all(err <= bar):
                if b - a < 1e-12 * max(abs(a), 1.0):
                    raise ConvergenceFailure(
                        f"levin_integral panel underflow at tau={0.5 * (a + b):.6g}")
                with np.errstate(divide="ignore", invalid="ignore"):
                    miss = np.max(err / bar) ** (1.0 / (NODES - 1))
                count = int(np.ceil(min(miss, MAX_PANELS))) if np.isfinite(miss) else 2
                pending[:0] = cut(near, far, count, r)
                continue
            psi_a = psi if sign > 0 else psi - dpsi
            # the last piece starting at or below the panel's lower end holds it
            piece = max(i for i, start in enumerate(starts) if start <= a)
            total[piece] += np.exp(1j * omegas * psi_a) * local
            psi += sign * dpsi
            errs.append(err)
        return total

    totals = [leg(anchor, end, pending, accumulated_phase(mode, scale, mode.tau0, anchor))
              for anchor, end, pending in legs]
    return (sum(totals[1:], totals[0]), tested, len(errs),
            np.array(errs).sum(axis=0).max())
