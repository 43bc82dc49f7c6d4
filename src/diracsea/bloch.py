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
from itertools import accumulate

import numpy as np

from .errors import ConventionMismatch, InvalidParameter
from .evolution import (
    FINE_OSCILLATION_RESOLUTION,
    Transport,
    cointegrate,
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
    ScaleFunction,
    SmoothScale,
    check_mode_scale,
    is_physical_eigenvalue,
)

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
    def durations(self) -> list:
        return [s.duration for s in self.segments]

    @property
    def total_duration(self) -> float:
        return sum(self.durations)

    @property
    def breakpoints(self) -> tuple:
        return tuple(accumulate(self.durations, initial=0.0))

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
    pairs = [(s.r_value, s.p) for s in scenario.segments]
    r, p = pairs[index]
    if p + dp <= 0:
        raise InvalidParameter("perturbed rotation count must stay positive")
    pairs[index] = (r, p + dp)
    return make_scenario(scenario.mode, pairs)


def _segment_v_integral(frame, generator, dt):
    """integral over a segment prefix of the v-vector (e3 rows of the frame)."""
    return (rotation_time_integral(generator, dt) @ frame)[2, :]


def _segment_frames(mode: Mode, widths, values):
    """Frames and running integrals of v R at the segment starts and the end.

    The frame is the identity at tau = 0, where the integral starts.
    Scenarios pass their segment durations as ``widths``, piecewise scales
    the differences of their breakpoints.
    """
    frames, prefix = [np.eye(3)], [np.zeros(3)]
    for dt, r in zip(widths, values):
        gen = rotation_generator(mode, r)
        prefix.append(prefix[-1] + _segment_v_integral(frames[-1], gen, dt) * r)
        frames.append(rotation_matrix(gen, np.linalg.norm(gen) * dt) @ frames[-1])
    return frames, prefix


def _frames_at(mode: Mode, scale: PiecewiseConstantScale, taus, widths=None):
    """(frame, running integral of v R from tau = 0) at each of ``taus``.

    Referenced to the mode's tau0: F(tau) F(tau0)^T, with F the frame that
    is the identity at tau = 0; the integral turns likewise.  ``widths`` as
    for ``_segment_frames``, by default the breakpoints' differences.
    """
    if widths is None:
        widths = np.diff(scale.breakpoints)
    frames, prefix = _segment_frames(mode, widths, scale.values)

    def at(t):
        if not (0.0 <= t <= scale.tau_end + 1e-12):
            raise InvalidParameter(f"tau={t} outside scenario duration")
        idx = scale.segment_index(t)
        r = scale.values[idx]
        gen = rotation_generator(mode, r)
        dt = t - scale.breakpoints[idx]
        return (rotation_matrix(gen, np.linalg.norm(gen) * dt) @ frames[idx],
                prefix[idx] + _segment_v_integral(frames[idx], gen, dt) * r)

    out = [at(t) for t in taus]
    if mode.tau0 == 0.0:
        return out
    ref = at(mode.tau0)[0]
    return [(w @ ref.T, cum @ ref.T) for w, cum in out]


def propagate_bloch(target, tau_grid, tol: float = DEFAULT_ODE_TOL):
    """Frame trajectory at the requested times, reference frame at the mode's tau0.

    ``target`` is either a Scenario or a ``(mode, scale)`` pair.  On
    piecewise-constant scales (every Scenario) the frames are exact
    fixed-axis rotations; on smooth scales they come from adaptive
    integration with orthogonality re-projection.
    """
    taus = [float(t) for t in tau_grid]
    if isinstance(target, Scenario):
        mode, scale, widths = target.mode, target.to_scale(), target.durations
    else:
        (mode, scale), widths = target, None
        _check_grid(mode, scale, taus)
    if scale.is_piecewise:
        return [BlochState(w=w, tau=t)
                for t, (w, _) in zip(taus, _frames_at(mode, scale, taus, widths))]
    states = cointegrate(frame_transport(mode, scale, tol), None, 0, mode.tau0,
                         taus, tol, FINE_OSCILLATION_RESOLUTION)
    return [BlochState(w=_project_rotation(x.reshape(3, 3).real), tau=t)
            for t, (x, _) in zip(taus, states)]


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

    def rhs(t, r, x):
        k = _cross_matrix(rotation_generator(mode, r))
        return (k @ x.reshape(3, 3).real).astype(complex).ravel()

    transport = Transport(scale, mode.tau0, at, rhs, restore,
                          lambda r: frequency(mode, r))
    return transport


def _check_grid(mode: Mode, scale: ScaleFunction, taus):
    if any(t2 < t1 for t1, t2 in zip(taus, taus[1:])):
        raise InvalidParameter("tau grid must be nondecreasing")
    check_mode_scale(mode, scale, *taus)


def v_trace_formula(mode: Mode, scale_or_scenario, tau_grid,
                    tol: float = DEFAULT_ODE_TOL):
    """v_alpha(tau) = 1/2 Tr(sigma_alpha U^dagger sigma3 U), reference tau0.

    This is the convention-free route: no rotation-axis orientation enters.
    """
    if isinstance(scale_or_scenario, Scenario):
        mode, scale_or_scenario = scale_or_scenario.mode, scale_or_scenario.to_scale()
    us = evolve_grid(mode, scale_or_scenario, mode.tau0, tau_grid, tol=tol)
    rows = []
    for u in us:
        b = u.conj().T @ SIGMA3 @ u
        rows.append(np.array([0.5 * np.trace(s @ b).real for s in _PAULI]))
    return rows


def v_components(target, tau_grid, tol: float = DEFAULT_ODE_TOL):
    """(tau, v1, v2, v3) rows: the first columns of ``v_rows_with_cumulative``."""
    return [row[:4] for row in v_rows_with_cumulative(target, tau_grid, tol)]


def v_rows_with_cumulative(target, tau_grid, tol: float = DEFAULT_ODE_TOL):
    """(tau, v1..v3, cumulative integral of v_alpha R) rows from one frame sweep.

    The v columns come from the trace formula; the rotation route's frames
    (``scenario_v_rows_with_cumulative`` for a Scenario, else
    ``smooth_v_rows_with_cumulative``) give the cumulative columns and
    cross-validate them, raising ConventionMismatch beyond the tolerance.
    """
    taus = [float(t) for t in tau_grid]
    if isinstance(target, Scenario):
        mode, scale = target.mode, target
        frame_rows = scenario_v_rows_with_cumulative(target, taus)
    else:
        mode, scale = target
        frame_rows = smooth_v_rows_with_cumulative(mode, scale, taus, tol)
    trace_rows = v_trace_formula(mode, scale, taus, tol=tol)
    worst = max((float(np.max(np.abs(np.subtract(v, row[1:4]))))
                 for v, row in zip(trace_rows, frame_rows)), default=0.0)
    if worst > TRACE_CROSSCHECK_TOL:
        raise ConventionMismatch(
            f"trace/rotation observables disagree by {worst:.3e} "
            f"(> {TRACE_CROSSCHECK_TOL}); rotation orientation suspect")
    return [(t, *v, *row[4:]) for t, v, row in zip(taus, trace_rows, frame_rows)]


def scenario_v_rows_with_cumulative(scenario: Scenario, tau_grid):
    """(tau, v1..v3, cumulative integral of v_alpha R) rows, exact per segment."""
    frames = _frames_at(scenario.mode, scenario.to_scale(), tau_grid,
                        scenario.durations)
    return [(t, *BlochState(w=w, tau=t).v(), *cum)
            for t, (w, cum) in zip(tau_grid, frames)]


def smooth_v_rows_with_cumulative(mode: Mode, scale: ScaleFunction, tau_grid,
                                  tol: float = DEFAULT_ODE_TOL):
    """(tau, v1..v3, cumulative integral of v_alpha R) rows for a (mode, scale) pair.

    The cumulative integrals run from the first grid point; the frame is
    referenced to the mode's tau0.  Piecewise scales take the closed-form
    frames.
    """
    taus = [float(t) for t in tau_grid]
    _check_grid(mode, scale, taus)
    if scale.is_piecewise:
        frames = _frames_at(mode, scale, taus)
        return [(t, *w[2, :], *(cum - frames[0][1]))
                for t, (w, cum) in zip(taus, frames)]

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
    _, prefix = _segment_frames(scenario.mode, scenario.durations,
                                scenario.to_scale().values)
    return prefix[-1], 0.0


def piecewise_signature_vector(mode: Mode, scale: PiecewiseConstantScale):
    """Signature Pauli vector for any piecewise scale, referenced to mode.tau0.

    Closed form: the running integral of v R over the whole scale.
    """
    return _frames_at(mode, scale, [scale.tau_end])[0][1]
