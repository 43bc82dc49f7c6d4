"""Time evolution of a separated Dirac mode, exact and WKB.

The mode propagator solves ``i dU/dtau = H(tau) U`` with
``H = m R(tau) sigma3 - lam sigma1`` and ``U = 1`` at the reference time.
``propagators``, the one exact-propagator sweep, gives it for a stack of
modes sharing R at every stop of a monotone list: piecewise-constant scale
functions exactly (spectral formula for each segment exponential), smooth
ones through the adaptive stepper with a step ceiling resolving the
instantaneous frequency and polar re-unitarization after every accepted
step.  ``evolve`` and ``evolve_grid`` are its one-mode cases.

A ``Transport`` is plain data, a fiber state at tau0 and the equation that
moves it: the (N, 2, 2) stack of exact propagators of modes sharing R, or
the WKB phase; ``bloch``'s rotation frames are the adjoint action of the
former.  ``cointegrate``, the package's only caller of the stepper,
carries one through a list of stops with an integral riding along, first
carrying it from tau0 to the anchor by a sweep of its own; on
piecewise-constant scales no production integral needs a transport.

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

from .errors import DegenerateFrame, InvalidParameter
from .model import (
    Hermitian2,
    IDENTITY2,
    Mode,
    PiecewiseConstantScale,
    ScaleFunction,
    SmoothScale,
    Unitary2,
    check_tolerances,
    polar_unitary,
    smooth_integrals,
    DEFAULT_ODE_TOL,
)
from . import stepper

log = logging.getLogger(__name__)

#: Step ceiling: a transport turns by at most this many radians per step
#: (0.1 rad, about 1/63 of a turn).
OSCILLATION_RESOLUTION = 0.1

def frequency(mode: Mode, r):
    """Instantaneous frequency sqrt(lam^2 + (m R)^2), elementwise in r."""
    return np.hypot(mode.lam, mode.mass * r)


def coefficient_matrix(mode: Mode, r: float) -> np.ndarray:
    m_r = mode.mass * r
    return np.array([[m_r, -mode.lam], [-mode.lam, -m_r]], dtype=complex)


def hamiltonian(mode: Mode, scale: ScaleFunction, tau: float):
    """H(tau) = m R(tau) sigma3 - lam sigma1 as a validated Hermitian matrix."""
    scale.check_domain(tau)
    return Hermitian2(coefficient_matrix(mode, scale.value(tau)))


def segment_propagator(lam, mass, r, dt) -> np.ndarray:
    """exp(-i H dt) for H = m r sigma3 - lam sigma1, via the spectral formula.

    exp(-i H t) = cos(f t) 1 - i sin(f t) H / f, branch-free and exact
    (the identity where f = 0).  The four arguments broadcast; the result
    has their shape followed by (2, 2).
    """
    lam, m_r, dt = np.broadcast_arrays(lam, np.multiply(mass, r), dt)
    f = np.hypot(lam, m_r)
    h = np.stack([m_r, -lam, -lam, -m_r], -1).reshape(f.shape + (2, 2)).astype(complex)
    sin_over_f = np.sin(f * dt) / np.where(f == 0.0, 1.0, f)
    return (np.cos(f * dt)[..., None, None] * IDENTITY2
            - np.multiply(1j, sin_over_f)[..., None, None] * h)


@dataclass(frozen=True)
class EvolutionResult:
    u: Unitary2
    tau_from: float
    tau_to: float
    step_count: int


def _piecewise_propagators(modes, scale: PiecewiseConstantScale,
                           tau_from: float, taus):
    """U(tau <- tau_from) of every mode at every stop, from segment exponentials.

    U(tau <- tau_from) = E(r_k, tau - t_k) C_k U(tau_from <- 0)^dagger,
    with k the segment holding tau, t_k its start, E the segment
    exponential and C_k = U(t_k <- 0), the product of the full segments
    before it, formed up to the last stop's segment.  Returns the (N, 2, 2)
    stacks and the pieces of the stop-to-stop legs, the work; logs both at DEBUG.
    """
    lams, masses = np.array([(m.lam, m.mass) for m in modes]).T
    bps, values = np.array(scale.breakpoints), np.array(scale.values)
    stops = np.array([tau_from, *taus])
    idx = scale.segment_index(stops)
    last = idx.max()
    full = segment_propagator(lams, masses, values[:last, None], np.diff(bps)[:last, None])
    starts = [np.broadcast_to(IDENTITY2, full.shape[1:])]
    for e in full:
        starts.append(e @ starts[-1])
    u = (segment_propagator(lams, masses, values[idx, None], (stops - bps[idx])[:, None])
         @ np.array(starts)[idx])
    lo, hi = np.minimum(stops[:-1], stops[1:]), np.maximum(stops[:-1], stops[1:])
    crossed = np.searchsorted(bps, hi, "left") - np.searchsorted(bps, lo, "right")
    work = int(np.sum(np.where(lo < hi, crossed + 1, 0)))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("propagators: %d stops, %d segments", len(taus), work)
    return list(u[1:] @ u[0].conj().swapaxes(-1, -2)), work


@dataclass(frozen=True)
class Transport:
    """A fiber state carried along tau, referenced to ``tau0``.

    ``start`` is the flat complex state at ``tau0``; ``rhs(t, r, x)`` its
    derivative at time t, r = R(t) as a float; ``restore(t, x)``, if given,
    maps the state back onto its manifold after every accepted step;
    ``frequency(r)``, the rate the state turns at (f for a propagator, 2f
    for an e^{2 i psi}), sets the step ceiling.
    """

    scale: ScaleFunction
    tau0: float
    start: np.ndarray
    rhs: Callable
    restore: Callable | None
    frequency: Callable[[float], float]


def cointegrate(transport: Transport, integrand, width: int, anchor: float,
                stops, tol: float, caps=None,
                stats: stepper.StepStats | None = None):
    """Carry a transport from ``anchor`` through the monotone ``stops``.

    The one carry rule: away from ``tau0`` the state first reaches
    ``anchor`` by a sweep of its own (no integral, no cap), restored
    once there.  The integral of ``integrand(t, r, x)`` (``width`` complex
    entries; r the scale value, x the transport state) from ``anchor``
    rides along as augmented state, so one adaptive stepper and one error
    budget cover both; ``tol`` is checked here, where it is read.  A step
    turns the transport by at most ``OSCILLATION_RESOLUTION`` radians and
    spans at most the next stop's entry of ``caps``, if given; the stepper
    counts its work into ``stats``, and a DEBUG log line reports it per
    sweep.  Returns one (state, integral) pair per stop.
    """
    check_tolerances(ode_tol=tol)
    stats = stats if stats is not None else stepper.StepStats()
    scale, restore, x0 = transport.scale, transport.restore, transport.start
    if anchor != transport.tau0:
        ((x0, _),) = cointegrate(transport, None, 0, transport.tau0, [anchor], tol,
                                 stats=stats)
        x0 = x0 if restore is None else restore(anchor, x0)
    k = x0.size
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

    def ceiling(t):
        rate = max(transport.frequency(scale.value(t)), 1e-3)
        return min(OSCILLATION_RESOLUTION / rate, cap)  # the cap of the stop ahead

    before = astuple(stats)
    y = np.concatenate([x0, np.zeros(width, dtype=complex)])
    states = []
    for t, stop, cap in zip([anchor, *stops], stops, caps or [np.inf] * len(stops)):
        # through the module, so a wrapped or patched stepper sees every leg
        y = stepper.integrate(rhs, t, stop, y, rtol=tol, atol=tol * 1e-2,
                              max_step=ceiling,
                              post_accept=post if restore is not None else None,
                              stats=stats)
        states.append((y[:k], y[k:]))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("cointegrate: %d stops, width %d, %d accepted, %d rejected, "
                  "%d rhs evaluations", len(states), width,
                  *np.subtract(astuple(stats), before))
    return states


def leg_plan(tau0: float, ends):
    """The (anchor, stops) sweeps covering the span of ``ends`` from a state
    known at tau0, each stopping at every end on its side, in order.

    From a tau0 inside the span the sweeps run out to both sides, upward
    first; from a tau0 outside it the state is first carried to the nearer end.
    """
    anchor = min(max(tau0, min(ends)), max(ends))
    up = sorted({t for t in ends if t > anchor})
    down = sorted({t for t in ends if t < anchor}, reverse=True)
    return [(anchor, stops) for stops in (up, down) if stops] or [(anchor, [anchor])]


def interval_integral(transport: Transport, integrand, width: int, intervals,
                      tol: float, caps=None) -> np.ndarray:
    """Integrals over each (lo, hi) of ``intervals`` of an integrand riding on a
    tau0-referenced transport, as an (n, width) array: one ``cointegrate`` sweep
    per leg of ``leg_plan`` over their ends, each integral the difference of the
    running integral from the leg anchor at its ends.  Between the ends of an
    interval a step spans at most its entry of ``caps``, if given."""
    caps = caps or [np.inf] * len(intervals)
    running = {}
    for anchor, stops in leg_plan(transport.tau0, [t for ends in intervals for t in ends]):
        stop_caps = [min([cap for (lo, hi), cap in zip(intervals, caps)
                          if lo <= min(t, stop) and max(t, stop) <= hi], default=np.inf)
                     for t, stop in zip([anchor, *stops], stops)]
        states = cointegrate(transport, integrand, width, anchor, stops, tol, stop_caps)
        running[anchor] = 0.0
        running.update((stop, acc) for stop, (_, acc) in zip(stops, states))
    return np.array([running[hi] - running[lo] for lo, hi in intervals])


def _mode_stack(modes) -> tuple:
    modes = tuple(modes)
    if not modes:
        raise InvalidParameter("a propagator stack needs at least one mode")
    return modes


def exact_transport(modes, scale: ScaleFunction, tau0: float) -> Transport:
    """Exact propagators U(tau <- tau0) of modes sharing R, as one (N, 2, 2) stack.

    dU/dtau = -i H U with H = r (m sigma3) - lam sigma1 is a signed row
    permutation of the flat stack: -i r m sigma3 U flips the sign of row 1,
    i lam sigma1 U swaps the rows.  The stack size picks the form, once:
    one mode takes it on Python scalars, the numpy form's products and
    sums in its order, so bit for bit (but for the sign of a zero where a
    product underflows), at a third of its cost per call; a larger stack
    keeps numpy, whose cost per call hardly grows with it.
    The stack is polar re-unitarized after every accepted step, and the
    fastest mode sets the step ceiling.
    """
    modes = _mode_stack(modes)
    pairs = [(m.lam, m.mass) for m in modes]
    lams, masses = np.array(pairs).T
    signed_mass = np.kron(-1j * masses, [1.0, 1.0, -1.0, -1.0])
    coupling = np.repeat(1j * lams, 4)
    if len(modes) == 1:
        top, _, bottom, _ = signed_mass.tolist()
        lam_i = coupling.tolist()[0]

        def rhs(t, r, x):
            a, b, c, d = x.tolist()
            r_top, r_bottom = r * top, r * bottom
            return [r_top * a + lam_i * c, r_top * b + lam_i * d,
                    r_bottom * c + lam_i * a, r_bottom * d + lam_i * b]
    else:
        row_swap = np.arange(4 * len(modes)) ^ 2

        def rhs(t, r, x):
            return r * signed_mass * x + coupling * x[row_swap]

    def restore(t, x):
        return polar_unitary(x.reshape(-1, 2, 2)).ravel()

    return Transport(scale, tau0, np.tile(IDENTITY2.ravel(), len(modes)), rhs, restore,
                     lambda r: max(math.hypot(lam, mass * r) for lam, mass in pairs))


def sigma3_conjugated(x, r: float) -> list:
    """r U^dagger sigma3 U of each 2x2 block [[a, b], [c, d]] of a flat stack.

    Flat and row-major per block, in closed form: |a|^2 - |c|^2,
    conj(a) b - conj(c) d, its conjugate, |b|^2 - |d|^2, each times r.
    """
    out = []
    for a, b, c, d in x.reshape(-1, 4).tolist():
        ac, cc = a.conjugate(), c.conjugate()
        off = ac * b - cc * d
        out += ((ac * a - cc * c).real * r, off * r, off.conjugate() * r,
                (b.conjugate() * b - d.conjugate() * d).real * r)
    return out


def propagators(modes, scale: ScaleFunction, tau_from: float, taus,
                tol: float = DEFAULT_ODE_TOL):
    """U(tau <- tau_from) of modes sharing R, one raw (N, 2, 2) stack per stop.

    Returns the stacks and the work.  Piecewise-constant scales: exact
    segment products (``_piecewise_propagators``), work = the pieces of the
    stop-to-stop legs.  Otherwise
    one ``cointegrate`` sweep of ``exact_transport`` through the stops with
    local error <= tol per unit tau, polar-projected at each stop; work =
    accepted steps.
    """
    check_tolerances(ode_tol=tol)
    tau_from, *taus = scale.check_domain(tau_from, *taus)
    modes = _mode_stack(modes)

    if scale.is_piecewise:
        return _piecewise_propagators(modes, scale, tau_from, taus)

    stats = stepper.StepStats()
    states = cointegrate(exact_transport(modes, scale, tau_from), None, 0,
                         tau_from, taus, tol, stats=stats)
    return [polar_unitary(x.reshape(-1, 2, 2)) for x, _ in states], stats.accepted


def evolve(mode: Mode, scale: ScaleFunction, tau_from: float, tau_to: float,
           tol: float = DEFAULT_ODE_TOL) -> EvolutionResult:
    """Propagator from ``tau_from`` to ``tau_to``: one mode, one stop."""
    ((u,),), work = propagators((mode,), scale, tau_from, [tau_to], tol)
    return EvolutionResult(u=Unitary2(u), tau_from=tau_from, tau_to=tau_to, step_count=work)


def evolve_grid(mode: Mode, scale: ScaleFunction, tau_from: float, taus,
                tol: float = DEFAULT_ODE_TOL):
    """Raw propagators U(tau_i <- tau_from): one mode of ``propagators``."""
    stacks, _ = propagators((mode,), scale, tau_from, taus, tol)
    return [stack[0] for stack in stacks]


def diagonalizer(mode: Mode, r) -> np.ndarray:
    """The frame V with V H V^{-1} = f sigma3, in the fixed phase convention.

    Rows are the Hermitian conjugates of the eigenvectors of the coefficient
    matrix, normalized so each eigenvector's first component is real and
    nonnegative (second component decides when the first vanishes, as in
    the decoupled lam = 0 case).  V is real:

        V = [[c, -s], [s, c]],  c = sqrt((f + mR) / 2f),
                                s = lam / sqrt(2 f (f + mR)),

    with rows sign-flipped as the convention demands.  The flip is a
    constant diagonal gauge, so it cancels in every V(b)^dagger ... V(a)
    product along a mode.  Elementwise in r: an array of scale values
    gives the stack of frames, shape r.shape + (2, 2).
    """
    f = frequency(mode, r)
    if (f == 0.0).any():
        raise DegenerateFrame(f"frequency vanishes at R={r} for lam={mode.lam}")
    m_r = mode.mass * np.asarray(r, dtype=float)
    c = np.sqrt((f + m_r) / (2.0 * f))
    s = mode.lam / np.sqrt(2.0 * f * (f + m_r))
    # a row's first entry decides its sign, its second where the first
    # vanishes; c >= 0, so (c, -s) flips only at c ~ 0 with s > 0
    g0 = 1.0 - 2.0 * ((c <= 1e-14) & (s > 0))
    g1 = 1.0 - 2.0 * (s < -1e-14)
    v = np.empty(np.shape(c) + (2, 2), dtype=complex)
    v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1] = g0 * c, -g0 * s, g1 * s, g1 * c
    return v


def accumulated_phase(mode: Mode, scale: ScaleFunction, tau_from: float, tau_to):
    """integral of the instantaneous frequency from tau_from to tau_to, or to each
    of an array of them.  Piecewise scales sum exactly; smooth scales take every
    end in one ``smooth_integrals`` call (the integrand is smooth and positive)."""
    scale.check_domain(tau_from, *np.ravel(tau_to).tolist())
    ends = np.asarray(tau_to, dtype=float)
    if scale.is_piecewise:
        phases = np.array([0.0 if end == tau_from else math.copysign(sum(
            frequency(mode, r) * (b - a) for a, b, r
            in scale.pieces(min(tau_from, end), max(tau_from, end))), end - tau_from)
            for end in ends.ravel().tolist()])
    else:  # a zero-width interval takes no panel: exactly 0.0
        phases = smooth_integrals(lambda t: frequency(mode, scale.value(t)), tau_from, ends)
    return float(phases[0]) if ends.ndim == 0 else phases.reshape(ends.shape)


def phase_transport(mode: Mode, scale: ScaleFunction) -> Transport:
    """The WKB phase psi(tau) from the mode's tau0, turning as e^{2 i psi}: at 2f."""
    freq = partial(frequency, mode)
    return Transport(scale, mode.tau0, np.zeros(1, dtype=complex),
                     lambda t, r, x: (freq(r),), None, lambda r: 2.0 * freq(r))


def wkb_propagator_raw(v_to: np.ndarray, v_from: np.ndarray, phase) -> np.ndarray:
    """V(to)^{-1} diag(e^{-i phase}, e^{+i phase}) V(from); a stack of frames
    ``v_to`` takes one phase each."""
    d = np.exp(np.multiply.outer(phase, [-1j, 1j]))
    return v_to.conj().swapaxes(-1, -2) @ (d[..., None] * v_from)


def wkb_propagators(mode: Mode, scale: ScaleFunction, tau_from: float,
                    taus) -> np.ndarray:
    """``wkb_propagator_raw`` from tau_from to each of ``taus``: an (n, 2, 2) stack."""
    scale.check_domain(mode.tau0, tau_from, *taus)
    taus = np.asarray(taus, dtype=float)
    return wkb_propagator_raw(diagonalizer(mode, scale.value(taus)),
                              diagonalizer(mode, scale.value(tau_from)),
                              accumulated_phase(mode, scale, tau_from, taus))


def wkb_evolve(mode: Mode, scale: ScaleFunction, tau_from: float,
               tau_to: float) -> Unitary2:
    """WKB propagator from tau_from to tau_to; unitary by construction."""
    return Unitary2(wkb_propagators(mode, scale, tau_from, [tau_to])[0])


def wkb_deviations(mode: Mode, scale: ScaleFunction, taus,
                   tol: float = DEFAULT_ODE_TOL) -> np.ndarray:
    """W = (WKB propagator)^dagger (exact propagator) from the mode's tau0 to
    each tau of a monotone grid, an (n, 2, 2) stack; ||W - 1|| is the
    pointwise WKB error."""
    us = np.array(evolve_grid(mode, scale, mode.tau0, taus, tol=tol))
    uws = wkb_propagators(mode, scale, mode.tau0, taus)
    return uws.conj().swapaxes(-1, -2) @ us


def wkb_deviation(mode: Mode, scale: ScaleFunction, tau: float,
                  tol: float = DEFAULT_ODE_TOL) -> Unitary2:
    """W(tau): ``wkb_deviations`` at one time."""
    return Unitary2(wkb_deviations(mode, scale, [tau], tol)[0])


def wkb_deviation_by_generator(mode: Mode, scale: SmoothScale, tau: float,
                               tol: float = DEFAULT_ODE_TOL) -> Unitary2:
    """Independent route to W(tau): integrate dW/dtau = X W, with X the
    anti-Hermitian generator in closed form.

    Cross-checks the product definition; the two must agree to quadrature
    accuracy.  X needs R', so the scale must be smooth.
    """
    scale.check_domain(mode.tau0, tau)
    lam, mass = mode.lam, mode.mass
    r0 = scale.value(mode.tau0)
    f0 = frequency(mode, r0)

    def rhs(t, r, y):
        f = frequency(mode, r)
        ph = -2.0 * y[0].real  # y[0] is the WKB phase from tau0
        c, s = np.cos(ph), np.sin(ph)
        x = lam * mass * scale.derivative(t) / (2.0 * f * f * f0) * np.array(
            [[-1j * lam * s, f0 * c - 1j * mass * r0 * s],
             [-f0 * c - 1j * mass * r0 * s, 1j * lam * s]], dtype=complex)
        return np.concatenate([[f], (x @ y[1:].reshape(2, 2)).ravel()])

    def restore(t, y):
        return np.concatenate([y[:1], polar_unitary(y[1:].reshape(2, 2)).ravel()])

    # the state (WKB phase, W) is (0, 1) at tau0
    transport = Transport(scale, mode.tau0, np.concatenate([[0j], IDENTITY2.ravel()]),
                          rhs, restore, partial(frequency, mode))
    ((y, _),) = cointegrate(transport, None, 0, mode.tau0, [tau], tol)
    return Unitary2(polar_unitary(y[1:].reshape(2, 2)))
