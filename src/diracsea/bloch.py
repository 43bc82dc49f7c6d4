"""Rotation picture of the mode dynamics and piecewise-constant scenarios.

Conjugating the Pauli basis by the mode propagator turns the 2x2 dynamics
into rigid rotations of three orthonormal vectors w_1, w_2, w_3 (one per
initial axis).  The nominal axis vector is d = 2 (lam, 0, -m R); the
actual generator of the frame rotation is -d (conjugation acts on Pauli
components through the inverse rotation; a sign slip here flips chirality,
so ``v_components`` cross-validates the orientation against the
convention-free trace formula on every call).

For piecewise-constant R every segment is a fixed-axis rotation, so frames
and their time integrals have closed forms: whole trajectories and the
signature integrals are exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConventionMismatch, InvalidParameter
from .evolution import (
    FINE_OSCILLATION_RESOLUTION,
    Transport,
    evolve_grid,
    frequency,
)
from .model import (
    DEFAULT_ODE_TOL,
    Mode,
    PiecewiseConstantScale,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SmoothScale,
    check_mode_scale,
    is_physical_eigenvalue,
)
from .projector import cointegrate

FRAME_ORTHOGONALITY_TOL = 1e-10
TRACE_CROSSCHECK_TOL = 1e-8
_PAULI = (SIGMA1, SIGMA2, SIGMA3)


def bloch_axis(mode: Mode, r: float) -> np.ndarray:
    """Nominal rotation axis d = 2 (lam, 0, -m R) for scale value r."""
    if r < 0:
        raise InvalidParameter(f"scale value must be >= 0, got {r}")
    return 2.0 * np.array([mode.lam, 0.0, -mode.mass * r])


def rotation_generator(mode: Mode, r: float) -> np.ndarray:
    """Actual frame generator: dw/dtau = generator x w.  Equals -bloch_axis."""
    return -bloch_axis(mode, r)


def _cross_matrix(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rotation about ``axis`` by ``angle`` (Rodrigues formula)."""
    n = np.linalg.norm(axis)
    if n == 0.0:
        return np.eye(3)
    a = np.asarray(axis, dtype=float) / n
    par = np.outer(a, a)
    return par + np.cos(angle) * (np.eye(3) - par) + np.sin(angle) * _cross_matrix(a)


def rotation_time_integral(generator, dt: float) -> np.ndarray:
    """integral over [0, dt] of the rotation about ``generator`` at its own speed.

    With P the projector onto the axis and K the cross-product matrix of the
    unit axis:  dt P + sin(|w| dt)/|w| (1 - P) + (1 - cos(|w| dt))/|w| K.
    """
    speed = np.linalg.norm(generator)
    if speed == 0.0:
        return dt * np.eye(3)
    a = np.asarray(generator, dtype=float) / speed
    par = np.outer(a, a)
    return (dt * par
            + np.sin(speed * dt) / speed * (np.eye(3) - par)
            + (1.0 - np.cos(speed * dt)) / speed * _cross_matrix(a))


@dataclass(frozen=True)
class BlochState:
    """Orthonormal frame at one time; column alpha is w_alpha(tau)."""

    w: np.ndarray
    tau: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).copy()
        if w.shape != (3, 3):
            raise InvalidParameter("frame must be a 3x3 matrix")
        defect = np.linalg.norm(w.T @ w - np.eye(3), 2)
        if defect > FRAME_ORTHOGONALITY_TOL or np.linalg.det(w) < 0:
            raise InvalidParameter(
                f"frame is not a rotation (defect {defect:.3e}, "
                f"det {np.linalg.det(w):.6f})")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def v(self) -> np.ndarray:
        """(v_1, v_2, v_3): the e3 components of the three frame vectors."""
        return self.w[2, :].copy()


@dataclass(frozen=True)
class Segment:
    r_value: float
    p: float
    duration: float


@dataclass(frozen=True)
class Scenario:
    """Piecewise-constant universe specified by rotation counts.

    Each segment lasts exactly ``p`` full frame rotations at scale value
    ``r_value``, i.e. pi * p / sqrt(lam^2 + (m r)^2) units of conformal
    time.  The total duration is whatever the segments sum to; integrals
    run over (0, T), not (0, pi).  Half-integer p makes a segment a
    reflection through its axis, but any positive p is accepted (perturbed
    scenarios probe the stability of the construction).
    """

    segments: tuple
    mode: Mode

    def __post_init__(self):
        if self.mode.tau0 != 0.0:
            raise InvalidParameter("scenario modes must have tau0 = 0")
        if len(self.segments) == 0:
            raise InvalidParameter("scenario needs at least one segment")
        for seg in self.segments:
            if not (seg.r_value > 0 and seg.p > 0):
                raise InvalidParameter("segments need r_value > 0 and p > 0")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    @property
    def breakpoints(self) -> tuple:
        out = [0.0]
        for s in self.segments:
            out.append(out[-1] + s.duration)
        return tuple(out)

    @property
    def r_max(self) -> float:
        return max(s.r_value for s in self.segments)

    def to_scale(self) -> PiecewiseConstantScale:
        return PiecewiseConstantScale(
            breakpoints=self.breakpoints,
            values=tuple(s.r_value for s in self.segments))


def make_scenario(mode: Mode, pairs) -> Scenario:
    """Scenario from (r_value, p) pairs; durations derived from the mode."""
    segs = []
    for r, p in pairs:
        r, p = float(r), float(p)
        if not (r > 0 and p > 0):
            raise InvalidParameter(f"invalid segment (r={r}, p={p})")
        segs.append(Segment(r_value=r, p=p,
                            duration=np.pi * p / frequency(mode, r)))
    return Scenario(segments=tuple(segs), mode=mode)


def _alternating_radii(lam: float, mass: float):
    """Scale values tilting the axis 10 and 70 degrees away from -e3."""
    r1 = (lam / mass) / np.tan(np.radians(10.0))
    r2 = (lam / mass) / np.tan(np.radians(70.0))
    return r1, r2


def build_six_segment(lam: float = 1.5, mass: float = 1.0) -> Scenario:
    """Three reflection pairs; symmetry in the e1/e3 plane kills S_1 and S_3."""
    if not (lam > 0 and mass > 0):
        raise InvalidParameter("lam and mass must be positive")
    mode = Mode(lam=lam, mass=mass, tau0=0.0,
                physical=is_physical_eigenvalue(lam))
    r1, r2 = _alternating_radii(lam, mass)
    return make_scenario(mode, [(r1, 5.5), (r2, 0.5)] * 3)


def build_twelve_segment(lam: float = 1.5, mass: float = 1.0) -> Scenario:
    """Six-segment block followed by its mirror; all signature components cancel."""
    if not (lam > 0 and mass > 0):
        raise InvalidParameter("lam and mass must be positive")
    mode = Mode(lam=lam, mass=mass, tau0=0.0,
                physical=is_physical_eigenvalue(lam))
    r1, r2 = _alternating_radii(lam, mass)
    pairs = [(r1, 5.5), (r2, 0.5)] * 3 + [(r2, 0.5), (r1, 5.5)] * 3
    return make_scenario(mode, pairs)


def perturb_scenario(scenario: Scenario, index: int, dp: float) -> Scenario:
    """Same scenario with segment ``index``'s rotation count shifted by dp."""
    pairs = [(s.r_value, s.p) for s in scenario.segments]
    r, p = pairs[index]
    if p + dp <= 0:
        raise InvalidParameter("perturbed rotation count must stay positive")
    pairs[index] = (r, p + dp)
    return make_scenario(scenario.mode, pairs)


def _scenario_frames(scenario: Scenario):
    """Frame at the start of each segment (reference identity at tau = 0)."""
    frames = [np.eye(3)]
    for seg in scenario.segments:
        gen = rotation_generator(scenario.mode, seg.r_value)
        rot = rotation_matrix(gen, np.linalg.norm(gen) * seg.duration)
        frames.append(rot @ frames[-1])
    return frames


def propagate_bloch(target, tau_grid, tol: float = DEFAULT_ODE_TOL):
    """Frame trajectory at the requested times.

    ``target`` is either a Scenario (exact fixed-axis rotations, reference
    frame at tau = 0) or a ``(mode, smooth_scale)`` pair (adaptive
    integration with orthogonality re-projection, reference frame at the
    mode's tau0).
    """
    taus = [float(t) for t in tau_grid]
    if isinstance(target, Scenario):
        return _propagate_scenario(target, taus)
    mode, scale = target
    _check_grid(mode, scale, taus)
    states = cointegrate(frame_transport(mode, scale, tol), None, 0, mode.tau0,
                         taus, tol, FINE_OSCILLATION_RESOLUTION)
    return [BlochState(w=_project_rotation(x.reshape(3, 3).real), tau=t)
            for t, (x, _) in zip(taus, states)]


def _propagate_scenario(scenario: Scenario, taus):
    scale = scenario.to_scale()
    frames = _scenario_frames(scenario)
    out = []
    for t in taus:
        if not (0.0 <= t <= scenario.total_duration + 1e-12):
            raise InvalidParameter(f"tau={t} outside scenario duration")
        idx = scale.segment_index(t)
        seg = scenario.segments[idx]
        gen = rotation_generator(scenario.mode, seg.r_value)
        rot = rotation_matrix(gen, np.linalg.norm(gen) * (t - scale.breakpoints[idx]))
        out.append(BlochState(w=rot @ frames[idx], tau=t))
    return out


def _project_rotation(f):
    u, _, vh = np.linalg.svd(f)
    r = u @ vh
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vh
    return r


def frame_transport(mode: Mode, scale: SmoothScale,
                    tol: float = DEFAULT_ODE_TOL) -> Transport:
    """The rotation frame, identity at the mode's tau0, re-projected onto SO(3)."""
    def restore(t, x):
        return _project_rotation(x.reshape(3, 3).real).astype(complex).ravel()

    def at(anchor):
        if anchor == mode.tau0:
            return np.eye(3, dtype=complex).ravel()
        ((x, _),) = cointegrate(transport, None, 0, mode.tau0, [anchor], tol,
                                FINE_OSCILLATION_RESOLUTION)
        return restore(anchor, x)

    def rhs(r, x):
        k = _cross_matrix(rotation_generator(mode, r))
        return (k @ x.reshape(3, 3).real).astype(complex).ravel()

    transport = Transport(scale, mode.tau0, at, rhs, restore,
                          lambda r: frequency(mode, r))
    return transport


def _check_grid(mode: Mode, scale: SmoothScale, taus):
    if any(t2 < t1 for t1, t2 in zip(taus, taus[1:])):
        raise InvalidParameter("tau grid must be nondecreasing")
    check_mode_scale(mode, scale, *taus)


def v_trace_formula(mode: Mode, scale_or_scenario, tau_grid,
                    tol: float = DEFAULT_ODE_TOL):
    """v_alpha(tau) = 1/2 Tr(sigma_alpha U^dagger sigma3 U), reference tau0.

    This is the convention-free route: no rotation-axis orientation enters.
    """
    if isinstance(scale_or_scenario, Scenario):
        mode = scale_or_scenario.mode
        scale = scale_or_scenario.to_scale()
    else:
        scale = scale_or_scenario
    us = evolve_grid(mode, scale, mode.tau0, tau_grid, tol=tol)
    rows = []
    for u in us:
        b = u.conj().T @ SIGMA3 @ u
        rows.append(np.array([0.5 * np.trace(s @ b).real for s in _PAULI]))
    return rows


def v_components(target, tau_grid, tol: float = DEFAULT_ODE_TOL):
    """(tau, v1, v2, v3) rows from the trace formula, cross-validated.

    Both the trace route (unitary evolution) and the rotation route
    (propagate_bloch) are evaluated; disagreement beyond the cross-check
    tolerance raises ConventionMismatch.  The trace values are returned.
    """
    taus = [float(t) for t in tau_grid]
    if isinstance(target, Scenario):
        mode, arg = target.mode, target
    else:
        mode, scale = target
        arg = target
    trace_rows = v_trace_formula(mode, target if isinstance(target, Scenario)
                                 else scale, taus, tol=tol)
    bloch_rows = [st.v() for st in propagate_bloch(arg, taus, tol=tol)]
    worst = max((float(np.max(np.abs(a - b)))
                 for a, b in zip(trace_rows, bloch_rows)), default=0.0)
    if worst > TRACE_CROSSCHECK_TOL:
        raise ConventionMismatch(
            f"trace/rotation observables disagree by {worst:.3e} "
            f"(> {TRACE_CROSSCHECK_TOL}); rotation orientation suspect")
    return [(t, *row) for t, row in zip(taus, trace_rows)]


def _segment_v_integral(frame, generator, dt):
    """integral over a segment prefix of the v-vector (e3 rows of the frame)."""
    return (rotation_time_integral(generator, dt) @ frame)[2, :]


def scenario_v_rows_with_cumulative(scenario: Scenario, tau_grid):
    """(tau, v1..v3, cumulative integral of v_alpha R) rows, exact per segment."""
    scale = scenario.to_scale()
    frames = _scenario_frames(scenario)
    prefix = [np.zeros(3)]
    for i, seg in enumerate(scenario.segments):
        gen = rotation_generator(scenario.mode, seg.r_value)
        whole = _segment_v_integral(frames[i], gen, seg.duration) * seg.r_value
        prefix.append(prefix[-1] + whole)
    rows = []
    for st in _propagate_scenario(scenario, tau_grid):
        t = st.tau
        idx = scale.segment_index(t)
        seg = scenario.segments[idx]
        gen = rotation_generator(scenario.mode, seg.r_value)
        part = (_segment_v_integral(frames[idx], gen, t - scale.breakpoints[idx])
                * seg.r_value)
        cum = prefix[idx] + part
        rows.append((t, *st.v(), *cum))
    return rows


def smooth_v_rows_with_cumulative(mode: Mode, scale: SmoothScale, tau_grid,
                                  tol: float = DEFAULT_ODE_TOL):
    """(tau, v1..v3, cumulative integral of v_alpha R) rows for smooth scales.

    The cumulative integrals run from the first grid point; the frame is
    referenced to the mode's tau0.
    """
    taus = [float(t) for t in tau_grid]
    _check_grid(mode, scale, taus)

    def integrand(t, r, x):
        return (x.reshape(3, 3).real[2, :] * r).astype(complex)

    states = cointegrate(frame_transport(mode, scale, tol), integrand, 3,
                         taus[0], taus, tol, FINE_OSCILLATION_RESOLUTION)
    return [(t, *_project_rotation(x.reshape(3, 3).real)[2, :], *acc.real)
            for t, (x, acc) in zip(taus, states)]


def scenario_signature_components(scenario: Scenario):
    """Pauli components of the signature integral, exact per segment.

    Returns (s_vec, s0): s_vec = integral of v(tau) R(tau) dtau over the
    whole scenario, s0 the identity component (identically zero because the
    conjugated sigma3 is traceless).
    """
    frames = _scenario_frames(scenario)
    svec = np.zeros(3)
    for i, seg in enumerate(scenario.segments):
        gen = rotation_generator(scenario.mode, seg.r_value)
        svec += _segment_v_integral(frames[i], gen, seg.duration) * seg.r_value
    return svec, 0.0


def piecewise_signature_vector(mode: Mode, scale: PiecewiseConstantScale):
    """Signature Pauli vector for any piecewise scale, referenced to mode.tau0.

    Closed form: accumulate with the bang-anchored frame, then rotate the
    result into the tau0 frame.
    """
    widths = np.diff(scale.breakpoints)
    frame = np.eye(3)
    svec = np.zeros(3)
    for r, dt in zip(scale.values, widths):
        gen = rotation_generator(mode, r)
        svec += _segment_v_integral(frame, gen, dt) * r
        frame = rotation_matrix(gen, np.linalg.norm(gen) * dt) @ frame
    if mode.tau0 != 0.0:
        idx = scale.segment_index(mode.tau0)
        ref = np.eye(3)
        for r, dt in zip(scale.values[:idx], widths[:idx]):
            gen = rotation_generator(mode, r)
            ref = rotation_matrix(gen, np.linalg.norm(gen) * dt) @ ref
        gen = rotation_generator(mode, scale.values[idx])
        ref = rotation_matrix(
            gen, np.linalg.norm(gen) * (mode.tau0 - scale.breakpoints[idx])) @ ref
        svec = ref @ svec
    return svec
