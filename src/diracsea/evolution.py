"""Time evolution of a separated Dirac mode, exact and WKB.

The mode propagator solves ``i dU/dtau = H(tau) U`` with
``H = m R(tau) sigma3 - lam sigma1`` and ``U = 1`` at the reference time.
``propagators``, the one exact-propagator sweep, gives it for a stack of
modes sharing R at every stop of a monotone list: piecewise-constant scale
functions exactly (spectral formula for each segment exponential), smooth
ones through the adaptive stepper with a step ceiling resolving the
instantaneous frequency and polar re-unitarization after every accepted
step.  ``evolve`` and ``evolve_grid`` are its one-mode cases.

A ``Transport`` carries a fiber state along tau from a reference time: the
(N, 2, 2) stack of exact propagators of modes sharing R, or the WKB phase
(``bloch`` adds the rotation frame).  ``cointegrate``, the package's only
caller of the stepper, carries one through a list of stops with an
integral riding along; on piecewise-constant scales no production
integral needs a transport.

The WKB propagator is assembled from the instantaneous diagonalizing frame
and the accumulated frequency integral; it is exact whenever R is constant.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateFrame, InvalidParameter
from .model import (
    Hermitian2,
    IDENTITY2,
    Mode,
    PiecewiseConstantScale,
    ScaleFunction,
    SmoothScale,
    Unitary2,
    check_mode_scale,
    polar_unitary,
    spectral_norm,
    DEFAULT_ODE_TOL,
)
from .stepper import StepStats, integrate_with_checkpoints

log = logging.getLogger(__name__)

#: Step ceiling: the phase advances by at most this many radians per step
#: (0.1 rad, about 1/63 of an oscillation period).
OSCILLATION_RESOLUTION = 0.1
#: The finer ceiling of WKB lifetime sweeps and rotation-frame sweeps.
FINE_OSCILLATION_RESOLUTION = 0.05

MIN_ODE_TOL = 1e-14
MAX_ODE_TOL = 1e-4


def check_ode_tol(tol: float):
    if not (MIN_ODE_TOL < tol < MAX_ODE_TOL):
        raise InvalidParameter(
            f"ode tolerance {tol} outside ({MIN_ODE_TOL}, {MAX_ODE_TOL})")


def frequency(mode: Mode, r: float) -> float:
    """Instantaneous frequency sqrt(lam^2 + (m R)^2)."""
    return float(np.hypot(mode.lam, mode.mass * r))


def coefficient_matrix(mode: Mode, r: float) -> np.ndarray:
    m_r = mode.mass * r
    return np.array([[m_r, -mode.lam], [-mode.lam, -m_r]], dtype=complex)


def hamiltonian(mode: Mode, scale: ScaleFunction, tau: float):
    """H(tau) = m R(tau) sigma3 - lam sigma1 as a validated Hermitian matrix."""
    scale.check_domain(tau)
    return Hermitian2(coefficient_matrix(mode, scale.value(tau)))


def segment_propagator(mode: Mode, r: float, dt: float) -> np.ndarray:
    """exp(-i H dt) for constant R = r, via the spectral formula.

    exp(-i H t) = cos(f t) 1 - i sin(f t) H / f, branch-free and exact.
    """
    f = frequency(mode, r)
    if f == 0.0:
        return IDENTITY2.copy()
    h = coefficient_matrix(mode, r)
    return np.cos(f * dt) * IDENTITY2 - 1j * np.sin(f * dt) / f * h


@dataclass(frozen=True)
class EvolutionResult:
    u: Unitary2
    tau_from: float
    tau_to: float
    step_count: int
    max_unitarity_defect: float


def _piecewise_propagate(mode: Mode, scale: PiecewiseConstantScale,
                         tau_from: float, tau_to: float):
    """Exact product of segment exponentials between two times."""
    if tau_to == tau_from:
        return IDENTITY2.copy(), 0
    pieces = scale.pieces(min(tau_from, tau_to), max(tau_from, tau_to))
    u = IDENTITY2.copy()
    for a, b, r in pieces:
        u = segment_propagator(mode, r, b - a) @ u
    if tau_to < tau_from:
        u = u.conj().T
    return u, len(pieces)


def step_ceiling(freq: Callable[[float], float], scale: ScaleFunction,
                 resolution: float = OSCILLATION_RESOLUTION,
                 cap: float = np.inf):
    """Step ceiling at tau: ``resolution`` radians of phase, and at most ``cap``.

    ``freq`` maps a scale value to the oscillation frequency.
    """
    return lambda t: min(resolution / max(freq(scale.value(t)), 1e-3), cap)


@dataclass(frozen=True)
class Transport:
    """A fiber state carried along tau, referenced to ``tau0``.

    ``at(anchor)`` is the flat complex state at ``anchor``; ``rhs(t, r, x)``
    its derivative at time t, r = R(t) as a float; ``restore(t, x)``, if
    given, maps the state back onto its manifold after every accepted step;
    ``frequency(r)`` is the oscillation frequency that sets the step ceiling.
    """

    scale: ScaleFunction
    tau0: float
    at: Callable
    rhs: Callable
    restore: Callable | None
    frequency: Callable[[float], float]


def cointegrate(transport: Transport, integrand, width: int, anchor: float,
                stops, tol: float, resolution: float = OSCILLATION_RESOLUTION,
                cap: float = np.inf, stats: StepStats | None = None):
    """Carry a transport from ``anchor`` through the monotone ``stops``.

    The integral of ``integrand(t, r, x)`` (``width`` complex entries; r the
    scale value, x the transport state) from ``anchor`` rides along as
    augmented state, so one adaptive stepper and one error budget cover
    both.  The step ceiling allows ``resolution`` radians of phase per step
    and at most ``cap``; the stepper counts its work into ``stats``, and a
    DEBUG log line reports it per sweep.  Returns one (state, integral)
    pair per stop.
    """
    x0 = transport.at(anchor)
    k = x0.size
    scale, restore = transport.scale, transport.restore
    buf = np.empty(k + width, dtype=complex)

    def rhs(t, y):
        r = float(scale.value(t))
        x = y[:k]
        buf[:k] = transport.rhs(t, r, x)
        if integrand is not None:
            buf[k:] = integrand(t, r, x)
        return buf

    def post(t, y):
        y[:k] = restore(t, y[:k])
        return y

    stats = stats if stats is not None else StepStats()
    before = astuple(stats)
    ceiling = step_ceiling(transport.frequency, scale, resolution, cap)
    states = integrate_with_checkpoints(
        rhs, anchor, stops, np.concatenate([x0, np.zeros(width, dtype=complex)]),
        rtol=tol, atol=tol * 1e-2, max_step=ceiling,
        post_accept=post if restore is not None else None, stats=stats)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("cointegrate: %d stops, width %d, %d accepted, %d rejected, "
                  "%d rhs evaluations", len(states), width,
                  *np.subtract(astuple(stats), before))
    return [(y[:k], y[k:]) for y in states]


def interval_integral(transport: Transport, integrand, width: int, lo: float,
                      hi: float, tol: float,
                      resolution: float = OSCILLATION_RESOLUTION,
                      cap: float = np.inf) -> np.ndarray:
    """Integral over [lo, hi] of an integrand riding on a tau0-referenced transport.

    From a tau0 inside the interval the sweeps run out to both ends; from
    a tau0 outside it the transport is first carried to the nearer end.
    """
    def leg(anchor, end):
        return cointegrate(transport, integrand, width, anchor, [end], tol,
                           resolution, cap)[0][1]

    tau0 = transport.tau0
    if tau0 <= lo:
        return leg(lo, hi)
    if tau0 >= hi:
        return -leg(hi, lo)
    return leg(tau0, hi) - leg(tau0, lo)


def exact_transport(modes, scale: ScaleFunction, tau0: float,
                    tol: float = DEFAULT_ODE_TOL) -> Transport:
    """Exact propagators U(tau <- tau0) of modes sharing R, as one (N, 2, 2) stack.

    dU/dtau = -i H U with H = r (m sigma3) - lam sigma1 is a signed row
    permutation of the flat stack: -i r m sigma3 U flips the sign of row 1,
    i lam sigma1 U swaps the rows.  The stack is polar re-unitarized after
    every accepted step, and the fastest mode sets the step ceiling.
    """
    modes = tuple(modes)
    lams, masses = np.array([(m.lam, m.mass) for m in modes]).T
    signed_mass = np.kron(-1j * masses, [1.0, 1.0, -1.0, -1.0])
    coupling = np.repeat(1j * lams, 4)
    row_swap = np.arange(4 * len(modes)) ^ 2

    def at(anchor):
        if anchor == tau0:
            return np.tile(IDENTITY2.ravel(), len(modes))
        (stack,), _ = propagators(modes, scale, tau0, [anchor], tol)
        return np.array([Unitary2(u).matrix for u in stack]).ravel()

    def rhs(t, r, x):
        return r * signed_mass * x + coupling * x[row_swap]

    def restore(t, x):
        return polar_unitary(x.reshape(-1, 2, 2)).ravel()

    return Transport(scale, tau0, at, rhs, restore,
                     lambda r: float(np.hypot(lams, masses * r).max()))


def sigma3_conjugated(x) -> list:
    """U^dagger sigma3 U of each 2x2 block [[a, b], [c, d]] of a flat stack.

    Flat and row-major per block, in closed form: |a|^2 - |c|^2,
    conj(a) b - conj(c) d, its conjugate, |b|^2 - |d|^2.
    """
    out = []
    for a, b, c, d in x.reshape(-1, 4).tolist():
        ac, cc = a.conjugate(), c.conjugate()
        off = ac * b - cc * d
        out += ((ac * a - cc * c).real, off, off.conjugate(),
                (b.conjugate() * b - d.conjugate() * d).real)
    return out


def propagators(modes, scale: ScaleFunction, tau_from: float, taus,
                tol: float = DEFAULT_ODE_TOL):
    """U(tau <- tau_from) of modes sharing R, one raw (N, 2, 2) stack per stop.

    Returns the stacks and the work.  Piecewise-constant scales: exact
    segment products chained from stop to stop, work = segments.  Otherwise
    one ``cointegrate`` sweep of ``exact_transport`` through the stops with
    local error <= tol per unit tau, polar-projected at each stop; work =
    accepted steps.
    """
    check_ode_tol(tol)
    scale.check_domain(tau_from)
    taus = [float(t) for t in taus]
    for t in taus:
        scale.check_domain(t)
    modes = tuple(modes)

    if isinstance(scale, PiecewiseConstantScale):
        stacks, work, u = [], 0, np.array([IDENTITY2] * len(modes))
        for prev, t in zip([tau_from, *taus], taus):
            legs = [_piecewise_propagate(m, scale, prev, t) for m in modes]
            u = np.array([p for p, _ in legs]) @ u
            stacks.append(u)
            work += legs[0][1]
        return stacks, work

    stats = StepStats()
    states = cointegrate(exact_transport(modes, scale, tau_from, tol), None, 0,
                         tau_from, taus, tol, stats=stats)
    return [polar_unitary(x.reshape(-1, 2, 2)) for x, _ in states], stats.accepted


def evolve(mode: Mode, scale: ScaleFunction, tau_from: float, tau_to: float,
           tol: float = DEFAULT_ODE_TOL) -> EvolutionResult:
    """Propagator from ``tau_from`` to ``tau_to``: one mode, one stop."""
    ((u,),), work = propagators((mode,), scale, tau_from, [tau_to], tol)
    u = Unitary2(u)
    return EvolutionResult(u=u, tau_from=tau_from, tau_to=tau_to,
                           step_count=work, max_unitarity_defect=u.defect)


def evolve_grid(mode: Mode, scale: ScaleFunction, tau_from: float, taus,
                tol: float = DEFAULT_ODE_TOL):
    """Raw propagators U(tau_i <- tau_from): one mode of ``propagators``."""
    stacks, _ = propagators((mode,), scale, tau_from, taus, tol)
    return [stack[0] for stack in stacks]


def diagonalizer(mode: Mode, r: float) -> np.ndarray:
    """The frame V with V H V^{-1} = f sigma3, in the fixed phase convention.

    Rows are the Hermitian conjugates of the eigenvectors of the coefficient
    matrix, normalized so each eigenvector's first component is real and
    nonnegative (second component decides when the first vanishes, as in
    the decoupled lam = 0 case).  V is real:

        V = [[c, -s], [s, c]],  c = sqrt((f + mR) / 2f),
                                s = lam / sqrt(2 f (f + mR)),

    with rows sign-flipped as the convention demands.  The flip is a
    constant diagonal gauge, so it cancels in every V(b)^dagger ... V(a)
    product along a mode.
    """
    f = frequency(mode, r)
    if f == 0.0:
        raise DegenerateFrame(f"frequency vanishes at R={r} for lam={mode.lam}")
    m_r = mode.mass * r
    c = math.sqrt((f + m_r) / (2.0 * f))
    s = mode.lam / math.sqrt(2.0 * f * (f + m_r))
    v = np.array([[c, -s], [s, c]], dtype=complex)
    for i, (first, second) in enumerate(((c, -s), (s, c))):
        if (first if abs(first) > 1e-14 else second) < 0:
            v[i, :] = -v[i, :]
    return v


def accumulated_phase(mode: Mode, scale: ScaleFunction, tau_from: float,
                      tau_to: float) -> float:
    """integral of the instantaneous frequency from tau_from to tau_to.

    Piecewise scales sum exactly; smooth scales use adaptive quadrature
    (the integrand is smooth and positive, so this is cheap and tight).
    """
    if tau_to == tau_from:
        return 0.0
    if isinstance(scale, PiecewiseConstantScale):
        sign = 1.0 if tau_to > tau_from else -1.0
        total = sum(frequency(mode, r) * (b - a) for a, b, r
                    in scale.pieces(min(tau_from, tau_to), max(tau_from, tau_to)))
        return sign * total
    val, _ = quad(lambda t: frequency(mode, scale.value(t)), tau_from, tau_to,
                  limit=400, epsabs=1e-13, epsrel=1e-13)
    return float(val)


@dataclass(frozen=True)
class WkbFrame:
    """Instantaneous frequency, diagonalizing frame, and phase from tau0."""

    f: float
    v: Unitary2
    phase: float


def phase_transport(mode: Mode, scale: ScaleFunction) -> Transport:
    """The WKB phase psi(tau): the frequency integral from the mode's tau0."""
    freq = partial(frequency, mode)

    def at(anchor):
        return np.array([accumulated_phase(mode, scale, mode.tau0, anchor)],
                        dtype=complex)

    return Transport(scale, mode.tau0, at, lambda t, r, x: (freq(r),), None, freq)


def wkb_frame(mode: Mode, scale: ScaleFunction, tau: float) -> WkbFrame:
    check_mode_scale(mode, scale, tau)
    r = scale.value(tau)
    return WkbFrame(f=frequency(mode, r),
                    v=Unitary2(diagonalizer(mode, r)),
                    phase=accumulated_phase(mode, scale, mode.tau0, tau))


def wkb_propagator_raw(v_to: np.ndarray, v_from: np.ndarray,
                       phase: float) -> np.ndarray:
    """V(to)^{-1} diag(e^{-i phase}, e^{+i phase}) V(from)."""
    d = np.array([np.exp(-1j * phase), np.exp(1j * phase)])
    return v_to.conj().T @ (d[:, None] * v_from)


def wkb_evolve(mode: Mode, scale: ScaleFunction, tau_from: float,
               tau_to: float) -> Unitary2:
    """WKB propagator from tau_from to tau_to; unitary by construction."""
    scale.check_domain(tau_from)
    scale.check_domain(tau_to)
    v_from = diagonalizer(mode, scale.value(tau_from))
    v_to = diagonalizer(mode, scale.value(tau_to))
    phase = accumulated_phase(mode, scale, tau_from, tau_to)
    return Unitary2(wkb_propagator_raw(v_to, v_from, phase))


def wkb_deviation(mode: Mode, scale: ScaleFunction, tau: float,
                  tol: float = DEFAULT_ODE_TOL) -> Unitary2:
    """W(tau): the unitary mismatch between WKB and exact propagation.

    W = (WKB propagator)^dagger (exact propagator), both referenced to the
    mode's tau0; the distance ||W - 1|| is the pointwise WKB error.
    """
    u = evolve(mode, scale, mode.tau0, tau, tol=tol).u.matrix
    uw = wkb_evolve(mode, scale, mode.tau0, tau).matrix
    return Unitary2(uw.conj().T @ u)


def deviation_from_identity(w) -> float:
    mat = w.matrix if isinstance(w, Unitary2) else np.asarray(w)
    return spectral_norm(mat - IDENTITY2)


def wkb_deviation_grid(mode: Mode, scale: ScaleFunction, taus,
                       tol: float = DEFAULT_ODE_TOL):
    """||W - 1|| sampled along a monotone grid, in a single sweep."""
    us = evolve_grid(mode, scale, mode.tau0, taus, tol=tol)
    out = []
    for t, u in zip(taus, us):
        uw = wkb_evolve(mode, scale, mode.tau0, t).matrix
        out.append(deviation_from_identity(uw.conj().T @ u))
    return out


def _deviation_generator(mode: Mode, scale: SmoothScale, f0: float, r0: float):
    """The anti-Hermitian generator of dW/dtau = X W, in closed form.

    Requires the scale function's derivative; valid for smooth scales only.
    """
    lam, mass = mode.lam, mode.mass

    def x_of(t: float, phase_from_tau0: float) -> np.ndarray:
        r = scale.value(t)
        rdot = scale.derivative(t)
        f = frequency(mode, r)
        ph = -2.0 * phase_from_tau0
        c, s = np.cos(ph), np.sin(ph)
        pref = lam * mass * rdot / (2.0 * f * f * f0)
        return pref * np.array(
            [[-1j * lam * s, f0 * c - 1j * mass * r0 * s],
             [-f0 * c - 1j * mass * r0 * s, 1j * lam * s]], dtype=complex)

    return x_of


def wkb_deviation_by_generator(mode: Mode, scale: SmoothScale, tau: float,
                               tol: float = DEFAULT_ODE_TOL) -> Unitary2:
    """Independent route to W(tau): integrate its own differential equation.

    Cross-checks the product definition; the two must agree to quadrature
    accuracy.  Needs a smooth scale with a derivative.
    """
    check_ode_tol(tol)
    check_mode_scale(mode, scale)
    r0 = scale.value(mode.tau0)
    f0 = frequency(mode, r0)
    x_of = _deviation_generator(mode, scale, f0, r0)

    def rhs(t, r, y):
        dw = x_of(t, y[0].real) @ y[1:].reshape(2, 2)
        return np.concatenate([[frequency(mode, r)], dw.ravel()])

    def restore(t, y):
        return np.concatenate([y[:1], polar_unitary(y[1:].reshape(2, 2)).ravel()])

    # the state (WKB phase, W) is (0, 1) at tau0, where every sweep starts
    transport = Transport(scale, mode.tau0,
                          lambda anchor: np.concatenate([[0j], IDENTITY2.ravel()]),
                          rhs, restore, partial(frequency, mode))
    ((y, _),) = cointegrate(transport, None, 0, mode.tau0, [tau], tol)
    return Unitary2(polar_unitary(y[1:].reshape(2, 2)))
