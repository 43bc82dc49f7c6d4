"""The rotation frame by its own ODE: the oracle of ``bloch``'s smooth frames.

Production forms the frame as the adjoint action of the exact propagator,
(w_a)_b = 1/2 Tr(sigma_a U^dagger sigma_b U).  Here it solves
dw/dtau = g x w instead, column by column, with g = ``rotation_generator``
(the generator the piecewise closed forms hard-wire), carried by
``cointegrate`` at twice the spinor's rate and re-projected onto SO(3), the
nearest rotation by SVD, after every accepted step.  No propagator enters,
so agreement checks the orientation of the rotation picture on smooth
scales, as ``v_rows_with_cumulative`` does at run time on piecewise ones.
"""

import numpy as np

from diracsea.bloch import rotation_generator
from diracsea.evolution import Transport, cointegrate, frequency
from diracsea.model import DEFAULT_ODE_TOL


def project_rotation(f):
    """The rotation nearest to a 3x3 matrix."""
    u, _, vh = np.linalg.svd(f)
    r = u @ vh
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vh
    return r


def frame_transport(mode, scale):
    """The frame, identity at the mode's tau0; it turns at |g| = 2f."""
    def restore(t, x):
        return project_rotation(x.reshape(3, 3).real).astype(complex).ravel()

    def rhs(t, r, x):
        dw = np.cross(rotation_generator(mode, r), x.reshape(3, 3).real, axisb=0, axisc=0)
        return dw.astype(complex).ravel()

    return Transport(scale, mode.tau0, np.eye(3, dtype=complex).ravel(), rhs, restore,
                     lambda r: 2.0 * frequency(mode, r))


def frame_rows(mode, scale, taus, tol=DEFAULT_ODE_TOL):
    """(frames, cumulative integrals of v R from taus[0]) at the grid, from one sweep.

    Frames are referenced to the mode's tau0, as an (n, 3, 3) stack whose
    row 2 is v; the integrals are an (n, 3) array.
    """
    taus = [float(t) for t in taus]

    def integrand(t, r, x):
        return (x.reshape(3, 3).real[2, :] * r).astype(complex)

    states = cointegrate(frame_transport(mode, scale), integrand, 3, taus[0], taus, tol)
    return (np.array([project_rotation(x.reshape(3, 3).real) for x, _ in states]),
            np.array([acc.real for _, acc in states]))
