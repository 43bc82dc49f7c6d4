"""Rotation picture of the mode dynamics and piecewise-constant scenarios.

Conjugating the Pauli basis by the mode propagator U turns the 2x2
dynamics into rigid rotations of three orthonormal frame vectors, one per
initial axis: (w_a)_b = 1/2 Tr(sigma_a U^dagger sigma_b U).  On every
scale ``propagate_bloch``'s frames are this adjoint action of the exact
propagators, and no rotation convention enters.

For piecewise-constant R every segment is a fixed-axis rotation, so frames
and their time integrals also have closed forms, exact to rounding.  These
hard-wire the generator -d, with d = 2 (lam, 0, -m R) the nominal axis
(conjugation acts on Pauli components through the inverse rotation; a sign
slip flips chirality), so on piecewise scales ``v_rows_with_cumulative``
checks the orientation against the convention-free trace formula on every
call.  A rotation-count ``Scenario`` is such a scale, with breakpoints set
by its mode; every entry point here takes ``(mode, scale, taus, tol)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .errors import ConventionMismatch, InvalidParameter
from .evolution import (cointegrate, evolve_grid, exact_transport, frequency,
                        sigma3_conjugated)
from .model import (DEFAULT_ODE_TOL, SIGMA1, SIGMA2, SIGMA3, Mode, PiecewiseConstantScale,
                    ScaleFunction, frozen_array, is_physical_eigenvalue)

FRAME_ORTHOGONALITY_TOL = 1e-10
TRACE_CROSSCHECK_TOL = 1e-8
PAULI = np.array([SIGMA1, SIGMA2, SIGMA3])


def bloch_axis(mode: Mode, r) -> np.ndarray:
    """Nominal rotation axis d = 2 (lam, 0, -m R); shape r.shape + (3,)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidParameter(f"scale value must be >= 0, got {r}")
    return 2.0 * np.stack(np.broadcast_arrays(mode.lam, 0.0, -mode.mass * r), -1)


def rotation_generator(mode: Mode, r) -> np.ndarray:
    """Actual frame generator: dw/dtau = generator x w.  Equals -bloch_axis."""
    return -bloch_axis(mode, r)


def _cross_matrix(v):
    """Cross-product matrix of each vector in a (..., 3) stack."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    o = np.zeros_like(x)
    return np.stack([o, -z, y, z, o, -x, -y, x, o], -1).reshape(x.shape + (3, 3))


def rotation_and_integral(generator, dt):
    """The rotation by |w| dt about a generator w, and its integral over [0, dt].

    With P the projector onto the unit axis and K its cross-product matrix
    (both 0 for w = 0), the rotation is P + cos(|w| dt) (1 - P) + sin(|w| dt) K
    (Rodrigues) and the integral dt P + sin(|w| dt)/|w| (1 - P)
    + (1 - cos(|w| dt))/|w| K.  (..., 3) generators and matching times give
    (..., 3, 3) stacks.
    """
    w = np.asarray(generator, dtype=float)
    speed = np.sqrt(np.einsum("...i,...i", w, w))[..., None, None]
    still = speed == 0.0
    speed = np.where(still, 1.0, speed)
    a = w / speed[..., 0]
    par, cross, eye = a[..., :, None] * a[..., None, :], _cross_matrix(a), np.eye(3)
    dt = np.asarray(dt, dtype=float)[..., None, None]
    cos, sin = np.cos(speed * dt), np.sin(speed * dt)
    return (np.where(still, eye, par + cos * (eye - par) + sin * cross),
            np.where(still, dt * eye,
                     dt * par + sin / speed * (eye - par) + (1.0 - cos) / speed * cross))


def _check_rotations(ws):
    """InvalidParameter unless ||W^T W - 1|| (its largest |eigenvalue|) is at most
    FRAME_ORTHOGONALITY_TOL and det W >= 0 for every frame W of the (..., 3, 3) stack."""
    gram = np.swapaxes(ws, -1, -2) @ ws - np.eye(3)
    defect = np.abs(np.linalg.eigvalsh(gram)).max(axis=-1).ravel()
    det = np.linalg.det(ws).ravel()
    bad = np.flatnonzero(~((defect <= FRAME_ORTHOGONALITY_TOL) & (det >= 0)))
    if bad.size:
        raise InvalidParameter(f"frame is not a rotation (defect {defect[bad[0]]:.3e}, "
                               f"det {det[bad[0]]:.6f})")


@dataclass(frozen=True)
class BlochState:
    """Orthonormal frame at one time; column alpha is w_alpha(tau)."""

    w: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "w", w := frozen_array(self.w, (3, 3), "frame", float))
        _check_rotations(w)

    def v(self) -> np.ndarray:
        """(v_1, v_2, v_3): the e3 components of the three frame vectors."""
        return self.w[2, :].copy()


@dataclass(frozen=True)
class Scenario(PiecewiseConstantScale):
    """Piecewise-constant universe specified by rotation counts.

    Segment k lasts exactly ``rotations[k]`` full frame rotations at scale
    value ``values[k]``, i.e. pi * p / sqrt(lam^2 + (m r)^2) units of
    conformal time: the breakpoints are the running sums of those widths.
    Its domain is the closed [0, tau_end], past pi alike.  Half-integer p makes a
    segment a reflection through its axis, but any positive p is accepted
    (perturbed scenarios probe the stability of the construction).
    """

    breakpoints: tuple = field(init=False)
    mode: Mode
    rotations: tuple

    def __post_init__(self):
        if self.mode.tau0 != 0.0:
            raise InvalidParameter("scenario modes must have tau0 = 0")
        rots = tuple(map(float, self.rotations))
        if not all(float(r) > 0 and p > 0 for r, p in zip(self.values, rots)):
            raise InvalidParameter("scenario segments need r > 0 and p > 0")
        object.__setattr__(self, "rotations", rots)
        # lengths that differ leave a breakpoint count that super() rejects
        object.__setattr__(self, "breakpoints", tuple(accumulate(
            (np.pi * p / frequency(self.mode, float(r))
             for r, p in zip(self.values, rots)), initial=0.0)))
        super().__post_init__()

    # ``tau_end``, under the name the benchmark's scenario files read
    total_duration = PiecewiseConstantScale.tau_end


def make_scenario(mode: Mode, pairs) -> Scenario:
    """Scenario from (r_value, p) pairs; the widths follow from the mode."""
    pairs = list(pairs)
    return Scenario(values=tuple(r for r, _ in pairs), mode=mode,
                    rotations=tuple(p for _, p in pairs))


def _alternating_preset(lam: float, mass: float):
    """A preset's mode, and scale values tilting the axis 10 and 70 degrees from -e3."""
    if not (lam > 0 and mass > 0):
        raise InvalidParameter("lam and mass must be positive")
    mode = Mode(lam=lam, mass=mass, tau0=0.0, physical=is_physical_eigenvalue(lam))
    return (mode, (lam / mass) / np.tan(np.radians(10.0)),
            (lam / mass) / np.tan(np.radians(70.0)))


def build_six_segment(lam: float = 1.5, mass: float = 1.0) -> Scenario:
    """Three reflection pairs; symmetry in the e1/e3 plane kills S_1 and S_3."""
    mode, r1, r2 = _alternating_preset(lam, mass)
    return make_scenario(mode, [(r1, 5.5), (r2, 0.5)] * 3)


def build_twelve_segment(lam: float = 1.5, mass: float = 1.0) -> Scenario:
    """Six-segment block followed by its mirror; all signature components cancel."""
    mode, r1, r2 = _alternating_preset(lam, mass)
    pairs = [(r1, 5.5), (r2, 0.5)] * 3 + [(r2, 0.5), (r1, 5.5)] * 3
    return make_scenario(mode, pairs)


def perturb_scenario(scenario: Scenario, index: int, dp: float) -> Scenario:
    """Same scenario with segment ``index``'s rotation count shifted by dp."""
    rotations = list(scenario.rotations)
    if not 0 <= index < len(rotations):
        raise InvalidParameter(f"no segment {index} to perturb")
    rotations[index] += dp
    return replace(scenario, rotations=tuple(rotations))


def _frames_at(mode: Mode, scale: PiecewiseConstantScale, taus):
    """(frames, running integrals of v R from tau = 0) at ``taus``, as stacks.

    Referenced to the mode's tau0: F(tau) F(tau0)^T, with F the frame that
    is the identity at tau = 0; the integral turns likewise.  Each segment's
    rotation and integral are formed once and chained to the segment starts.
    The callers check that tau0 and ``taus`` lie in the scale's domain.
    """
    values = np.array(scale.values)
    rots, ints = rotation_and_integral(rotation_generator(mode, values),
                                       np.diff(scale.breakpoints))
    frames, prefix = [np.eye(3)], [np.zeros(3)]
    for rot, integral, r in zip(rots, ints, values):
        prefix.append(prefix[-1] + (integral @ frames[-1])[2, :] * r)
        frames.append(rot @ frames[-1])
    frames, prefix = np.array(frames), np.array(prefix)
    taus = np.append(np.asarray(taus, dtype=float), mode.tau0)  # tau0 last
    idx = scale.segment_index(taus)
    r = np.take(scale.values, idx)
    rots, ints = rotation_and_integral(rotation_generator(mode, r),
                                       taus - np.take(scale.breakpoints, idx))
    ws = rots @ frames[idx]
    cums = prefix[idx] + (ints @ frames[idx])[:, 2, :] * r[:, None]
    if mode.tau0 == 0.0:
        return ws[:-1], cums[:-1]
    ref = ws[-1].T
    return ws[:-1] @ ref, cums[:-1] @ ref


def propagate_bloch(mode: Mode, scale: ScaleFunction, tau_grid,
                    tol: float = DEFAULT_ODE_TOL):
    """Frame trajectory at the requested times, reference frame at the mode's tau0.

    On every scale the frames are the adjoint action of the exact
    propagators from one ``evolve_grid`` sweep.
    """
    taus = _grid(mode, scale, tau_grid)
    us = np.array(evolve_grid(mode, scale, mode.tau0, taus, tol=tol))
    ws = 0.5 * np.einsum("aij,nkj,bkl,nli->nba", PAULI, us.conj(), PAULI, us).real
    return [BlochState(w=w, tau=t) for t, w in zip(taus, ws)]


def _grid(mode: Mode, scale: ScaleFunction, tau_grid) -> list:
    """The grid as floats: nonempty, nondecreasing, with tau0 in the scale's domain."""
    taus = [float(t) for t in tau_grid]
    if not taus:
        raise InvalidParameter("tau grid is empty")
    if any(t2 < t1 for t1, t2 in zip(taus, taus[1:])):
        raise InvalidParameter("tau grid must be nondecreasing")
    scale.check_domain(mode.tau0, *taus)
    return taus


def _sigma3_pauli(us) -> np.ndarray:
    """v = (Re B01, -Im B01, (B00 - B11) / 2), the Pauli parts of B = U^dagger sigma3 U.

    With U = [[a, b], [c, d]], B01 = conj(a) b - conj(c) d.  One (3,) row per
    propagator of a flat or (n, 2, 2) stack, as an (n, 3) array.
    """
    a, b, c, d = np.reshape(us, (-1, 4)).T
    off = a.conj() * b - c.conj() * d
    diag = (a.conj() * a - c.conj() * c).real - (b.conj() * b - d.conj() * d).real
    # 0 - Im rather than -Im: no negative zero where U is diagonal
    return np.stack([off.real, 0.0 - off.imag, 0.5 * diag], axis=-1)


def v_trace_formula(mode: Mode, scale: ScaleFunction, tau_grid,
                    tol: float = DEFAULT_ODE_TOL):
    """v_alpha(tau) = 1/2 Tr(sigma_alpha U^dagger sigma3 U), reference tau0.

    This is the convention-free route: no rotation-axis orientation enters.
    One (3,) row per grid point, as an (n, 3) array.
    """
    taus = _grid(mode, scale, tau_grid)
    return _sigma3_pauli(np.array(evolve_grid(mode, scale, mode.tau0, taus, tol=tol)))


def v_components(mode: Mode, scale: ScaleFunction, tau_grid,
                 tol: float = DEFAULT_ODE_TOL):
    """(tau, v1, v2, v3) rows: the first columns of ``v_rows_with_cumulative``."""
    return [row[:4] for row in v_rows_with_cumulative(mode, scale, tau_grid, tol)]


def v_rows_with_cumulative(mode: Mode, scale: ScaleFunction, tau_grid,
                           tol: float = DEFAULT_ODE_TOL):
    """(tau, v1..v3, cumulative integral of v_alpha R) rows, frame referenced to tau0.

    The integrals run from the first grid point.  Smooth scales: one sweep
    of the exact propagator from there, the integral riding along and the v
    columns the trace formula of its states.  Piecewise scales: the closed
    forms of ``scenario_v_rows_with_cumulative``, whose v columns must match
    the trace formula's (else ConventionMismatch).
    """
    taus = [float(t) for t in tau_grid]
    if not scale.is_piecewise:
        taus = _grid(mode, scale, taus)

        def integrand(t, r, x):  # v R, from signature_operator's integrand
            b00, b01, _, b11 = sigma3_conjugated(x, r)
            return b01.real, -b01.imag, 0.5 * (b00 - b11)

        states = cointegrate(exact_transport((mode,), scale, mode.tau0), integrand,
                             3, taus[0], taus, tol)
        vs = _sigma3_pauli(np.array([x for x, _ in states]))
        cums = np.array([acc.real for _, acc in states])
        return [(t, *v, *cum) for t, v, cum in zip(taus, vs.tolist(), cums.tolist())]
    frame_rows = np.array(scenario_v_rows_with_cumulative(mode, scale, taus),
                          dtype=float).reshape(-1, 7)
    trace_rows = v_trace_formula(mode, scale, taus, tol=tol)
    worst = float(np.max(np.abs(trace_rows - frame_rows[:, 1:4]), initial=0.0))
    if worst > TRACE_CROSSCHECK_TOL:
        raise ConventionMismatch(
            f"trace/rotation observables disagree by {worst:.3e} "
            f"(> {TRACE_CROSSCHECK_TOL}); rotation orientation suspect")
    return [(t, *v, *cum) for t, v, cum
            in zip(taus, trace_rows.tolist(), frame_rows[:, 4:].tolist())]


def scenario_v_rows_with_cumulative(mode: Mode, scale: PiecewiseConstantScale,
                                    tau_grid):
    """(tau, v1..v3, cumulative integral of v_alpha R) rows, exact per segment.

    The cumulative integrals run from the first grid point; the frame is
    referenced to the mode's tau0.
    """
    taus = _grid(mode, scale, tau_grid)
    ws, cums = _frames_at(mode, scale, taus)
    _check_rotations(ws)
    return [(t, *v, *cum) for t, v, cum
            in zip(taus, ws[:, 2, :].tolist(), (cums - cums[:1]).tolist())]


def scenario_signature_components(scenario: Scenario):
    """Pauli components of the signature integral, exact per segment.

    Returns (s_vec, s0): s_vec = integral of v(tau) R(tau) dtau over the
    whole scenario, s0 the identity component (identically zero because the
    conjugated sigma3 is traceless).
    """
    return piecewise_signature_vector(scenario.mode, scenario), 0.0


def piecewise_signature_vector(mode: Mode, scale: PiecewiseConstantScale):
    """Signature Pauli vector for any piecewise scale, referenced to mode.tau0.

    Closed form: the running integral of v R over the whole scale.
    """
    scale.check_domain(mode.tau0)
    return _frames_at(mode, scale, [scale.tau_end])[1][0]
