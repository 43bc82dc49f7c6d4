"""Time evolution of a separated Dirac mode, exact and WKB.

The mode propagator solves ``i dU/dtau = H(tau) U`` with
``H = m R(tau) sigma3 - lam sigma1`` and ``U = 1`` at the reference time.
Piecewise-constant scale functions are integrated exactly (spectral
formula for each segment exponential); smooth ones go through the shared
adaptive stepper with a step ceiling resolving the instantaneous frequency
and polar re-unitarization after every accepted step.

A ``Transport`` carries a fiber state along tau from a reference time: the
exact propagators of modes sharing R, or the WKB phase (``bloch`` adds the
rotation frame).  Integrals ride on one through ``projector.cointegrate``.

The WKB propagator is assembled from the instantaneous diagonalizing frame
and the accumulated frequency integral; it is exact whenever R is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateFrame, InvalidParameter
from .model import (
    IDENTITY2,
    Mode,
    PiecewiseConstantScale,
    ScaleFunction,
    SmoothScale,
    Unitary2,
    check_mode_scale,
    polar_unitary,
    spectral_norm,
    unitarity_defect,
    DEFAULT_ODE_TOL,
)

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
    from .model import Hermitian2

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
    sign = 1.0 if tau_to > tau_from else -1.0
    lo, hi = min(tau_from, tau_to), max(tau_from, tau_to)
    bps = scale.breakpoints
    cuts = [lo] + [b for b in bps if lo < b < hi] + [hi]
    u = IDENTITY2.copy()
    for a, b in zip(cuts, cuts[1:]):
        r = scale.value(0.5 * (a + b))
        u = segment_propagator(mode, r, b - a) @ u
    if sign < 0:
        u = u.conj().T
    return u, len(cuts) - 1


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

    ``at(anchor)`` is the flat complex state at ``anchor``; ``rhs(r, x)`` its
    derivative at scale value r; ``restore(t, x)``, if given, maps the state
    back onto its manifold after every accepted step; ``frequency(r)`` is
    the oscillation frequency that sets the step ceiling.
    """

    scale: ScaleFunction
    tau0: float
    at: Callable
    rhs: Callable
    restore: Callable | None
    frequency: Callable[[float], float]

    def derivative(self, t: float, x):
        return self.rhs(self.scale.value(t), x)


def exact_transport(modes, scale: ScaleFunction, tau0: float,
                    tol: float = DEFAULT_ODE_TOL) -> Transport:
    """Exact propagators U(tau <- tau0) of modes sharing R, one 2x2 block each.

    Each block solves dU/dtau = -i H U and is polar re-unitarized after
    every accepted step.
    """
    modes = tuple(modes)

    def at(anchor):
        if anchor == tau0:
            return np.tile(IDENTITY2.ravel(), len(modes))
        return np.concatenate([evolve(m, scale, tau0, anchor, tol=tol).u.matrix.ravel()
                               for m in modes])

    def rhs(r, x):
        return np.concatenate([(-1j * (coefficient_matrix(m, r) @ u)).ravel()
                               for m, u in zip(modes, x.reshape(-1, 2, 2))])

    def restore(t, x):
        return polar_unitary(x.reshape(-1, 2, 2)).ravel()

    return Transport(scale, tau0, at, rhs, restore,
                     lambda r: max(frequency(m, r) for m in modes))


def evolve(mode: Mode, scale: ScaleFunction, tau_from: float, tau_to: float,
           tol: float = DEFAULT_ODE_TOL) -> EvolutionResult:
    """Propagator from ``tau_from`` to ``tau_to`` with local error <= tol per unit tau."""
    check_ode_tol(tol)
    scale.check_domain(tau_from)
    scale.check_domain(tau_to)

    if isinstance(scale, PiecewiseConstantScale):
        u, nseg = _piecewise_propagate(mode, scale, tau_from, tau_to)
        return EvolutionResult(u=Unitary2(u), tau_from=tau_from, tau_to=tau_to,
                               step_count=nseg,
                               max_unitarity_defect=unitarity_defect(u))

    from .stepper import StepStats, integrate

    tr = exact_transport((mode,), scale, tau_from, tol)
    stats = StepStats()
    y = integrate(tr.derivative, tau_from, tau_to, tr.at(tau_from),
                  rtol=tol, atol=tol * 1e-2,
                  max_step=step_ceiling(tr.frequency, scale),
                  post_accept=tr.restore, stats=stats)
    u = polar_unitary(y.reshape(2, 2))
    return EvolutionResult(u=Unitary2(u), tau_from=tau_from, tau_to=tau_to,
                           step_count=stats.accepted,
                           max_unitarity_defect=unitarity_defect(u))


def evolve_grid(mode: Mode, scale: ScaleFunction, tau_from: float, taus,
                tol: float = DEFAULT_ODE_TOL):
    """Raw propagators U(tau_i <- tau_from), visiting the grid sequentially."""
    check_ode_tol(tol)
    taus = [float(t) for t in taus]
    for t in taus:
        scale.check_domain(t)

    if isinstance(scale, PiecewiseConstantScale):
        out = []
        u = IDENTITY2.copy()
        prev = tau_from
        for t in taus:
            du, _ = _piecewise_propagate(mode, scale, prev, t)
            u = du @ u
            out.append(u.copy())
            prev = t
        return out

    from .projector import cointegrate

    states = cointegrate(exact_transport((mode,), scale, tau_from, tol), None, 0,
                         tau_from, taus, tol)
    return [polar_unitary(x.reshape(2, 2)) for x, _ in states]


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
        lo, hi = min(tau_from, tau_to), max(tau_from, tau_to)
        cuts = [lo] + [b for b in scale.breakpoints if lo < b < hi] + [hi]
        total = sum(frequency(mode, scale.value(0.5 * (a + b))) * (b - a)
                    for a, b in zip(cuts, cuts[1:]))
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

    return Transport(scale, mode.tau0, at, lambda r, x: (freq(r),), None, freq)


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
    from .stepper import integrate

    r0 = scale.value(mode.tau0)
    f0 = frequency(mode, r0)
    x_of = _deviation_generator(mode, scale, f0, r0)

    def rhs(t, y):
        phase = y[0].real
        w = y[1:].reshape(2, 2)
        dw = x_of(t, phase) @ w
        return np.concatenate([[frequency(mode, scale.value(t))], dw.ravel()])

    def post(t, y):
        y = y.copy()
        y[1:] = polar_unitary(y[1:].reshape(2, 2)).ravel()
        return y

    y0 = np.concatenate([[0.0 + 0.0j], IDENTITY2.ravel()])
    y = integrate(rhs, mode.tau0, tau, y0, rtol=tol, atol=tol * 1e-2,
                  max_step=step_ceiling(partial(frequency, mode), scale),
                  post_accept=post)
    return Unitary2(polar_unitary(y[1:].reshape(2, 2)))
