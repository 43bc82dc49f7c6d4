"""The 960-case WKB sweep of the Levin panel walk (not collected by pytest).

Every case is a ``signature_operator_wkb`` (its Levin tolerance ``ode_tol``)
or a ``k_wkb_apply`` of a bump on one of four supports, on dust at
r_max {10, 300, 1e4, 1e5} x lam {0, 0.5, -1.5, 7.5} x tol {1e-10, 1e-12,
1e-13, 2e-14} x tau0 {0.3, pi/2, 3.0}: 192 signatures and 768 images.  It
prints the number of ``ConvergenceFailure``s and the worst relative error
of each tolerance against the case's tol-2e-14 result, with the case.  Run
from the root of a checkout:

    PYTHONPATH=src python3 tests/walk_sweep.py
"""

import itertools

import numpy as np

from diracsea import ConvergenceFailure, Mode, bump, dust_scale
from diracsea.projector import k_wkb_apply, signature_operator_wkb

R_MAXES = (10.0, 300.0, 1e4, 1e5)
LAMS = (0.0, 0.5, -1.5, 7.5)
TOLS = (1e-10, 1e-12, 1e-13, 2e-14)
TAU0S = (0.3, float(np.pi / 2), 3.0)
SUPPORTS = ((0.005, 0.05), (0.01, 1.0), (1.0, 2.0), (3.0, 3.14))


def cases():
    """(label, function of tol) of every case but the tolerance."""
    for r_max, lam, tau0 in itertools.product(R_MAXES, LAMS, TAU0S):
        mode, scale = Mode(lam=lam, mass=1.0, tau0=tau0, physical=False), dust_scale(r_max)
        label = f"r_max {r_max:g}, lam {lam:g}, tau0 {tau0:.4g}"
        yield (f"signature, {label}",
               lambda tol, mode=mode, scale=scale:
               signature_operator_wkb(mode, scale, ode_tol=tol).s.matrix)
        for support in SUPPORTS:
            phi = bump(support, np.array([1.0, 0.0]))
            yield (f"image on {support}, {label}",
                   lambda tol, mode=mode, scale=scale, phi=phi:
                   k_wkb_apply(mode, scale, phi, tol=tol).value)


def main():
    failures, worst, total = [], {tol: (0.0, "") for tol in TOLS[:-1]}, 0
    for label, run in cases():
        got = {}
        for tol in TOLS:
            total += 1
            try:
                got[tol] = run(tol)
            except ConvergenceFailure as exc:
                failures.append(f"{label}, tol {tol:g}: {exc}")
        if (ref := got.get(TOLS[-1])) is None:
            continue
        for tol in set(got) & set(worst):
            err = np.abs(got[tol] - ref).max() / np.abs(ref).max()
            worst[tol] = max(worst[tol], (err, label))
    print(f"{total} cases, {len(failures)} ConvergenceFailure")
    for line in failures:
        print(f"  {line}")
    for tol, (err, label) in worst.items():
        print(f"tol {tol:g}: worst relative error {err:.2g} against tol 2e-14 ({label})")


if __name__ == "__main__":
    main()
