"""Signature operator, causal fundamental solution, and the mode projector.

Per mode, the indefinite space-time pairing is represented on the 2-dim
fiber at tau0 by the Hermitian signature matrix

    S = integral over the lifetime of  U(tau)^dagger sigma3 U(tau) R(tau),

the causal fundamental solution maps a probe phi to

    k(phi) = 1/(2 pi) * integral of U(tau)^dagger sigma3 phi(tau) R(tau),

and the projector onto the filled states is  P(phi) = -X_neg(S) k(phi)
with X_neg the spectral projection onto S's negative subspace.  WKB
counterparts replace U by the frame-and-phase propagator.

The exact integrals ride as augmented state on one transport (exact U,
or the WKB phase) through ``cointegrate``, so one adaptive stepper and one
error budget cover propagator and integral; each caller supplies only its
integrand.  On smooth scales the WKB signature, k and leading-order
projector are instead Levin quadratures against the phase
(``levin.levin_integral``), whose cost does not grow with m * r_max;
``wkb_scalar_integrals`` keeps the stepper as an independent oracle.
Over the open lifetime, the endpoint limits are handled by shrinking a
cutoff delta until the rigorous tail bound (the integrand norm is at most
R) drops below the requested tolerance.  On piecewise-constant scales the
signatures have closed forms; k and the WKB images still use the stepper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceFailure, DegenerateSignature, InvalidParameter
from .evolution import (
    FINE_OSCILLATION_RESOLUTION,
    OSCILLATION_RESOLUTION,
    Transport,
    accumulated_phase,
    check_ode_tol,
    diagonalizer,
    exact_transport,
    frequency,
    phase_transport,
    step_ceiling,
    wkb_propagator_raw,
)
from .levin import levin_integral
from .model import (
    DEFAULT_GAP_TOL,
    DEFAULT_ODE_TOL,
    DEFAULT_QUAD_TOL,
    Hermitian2,
    Mode,
    PiecewiseConstantScale,
    ScaleFunction,
    SIGMA3,
    TestFunction,
    Unitary2,
    check_mode_scale,
)
# perfbench/test_perfbench.py reads ``projector.integrate``; keep it bound.
from .stepper import integrate, integrate_with_checkpoints  # noqa: F401

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SignatureResult:
    """Signature matrix with its spectral data and error bookkeeping.

    ``scale_bound`` is the a-priori operator-norm ceiling (the lifetime
    integral of R); it also serves as the absolute floor when deciding
    whether an eigenvalue sits dangerously close to zero.
    """

    s: Hermitian2
    eigenvalues: tuple
    eigvectors: Unitary2
    quad_error_estimate: float
    scale_bound: float

    @property
    def mu_minus(self) -> float:
        return self.eigenvalues[0]

    @property
    def mu_plus(self) -> float:
        return self.eigenvalues[1]

    def norm(self) -> float:
        return max(abs(self.mu_minus), abs(self.mu_plus))


def _finish_signature(matrix, quad_error: float, scale_bound: float) -> SignatureResult:
    herm = Hermitian2(0.5 * (matrix + matrix.conj().T))
    evals, evecs = np.linalg.eigh(herm.matrix)
    return SignatureResult(
        s=herm,
        eigenvalues=(float(evals[0]), float(evals[1])),
        eigvectors=Unitary2(evecs),
        quad_error_estimate=quad_error,
        scale_bound=scale_bound,
    )


def _choose_cutoffs(scale: ScaleFunction, tol: float):
    """Per-endpoint cutoffs: shrink each delta until its tail drops below tol/2.

    Independent sides matter: a scale vanishing at one endpoint only should
    not be forced to evaluate arbitrarily close to the other.
    """
    cutoffs = []
    for tail in (scale.tail_below, scale.tail_above):
        delta = min(0.05, scale.tau_end / 16.0)
        for _ in range(60):
            if tail(delta) <= tol / 2.0:
                break
            delta *= 0.25
        else:
            raise ConvergenceFailure(
                f"endpoint tail bound not reached (last delta {delta:.3e})")
        cutoffs.append(delta)
    return cutoffs[0], cutoffs[1]


def cointegrate(transport: Transport, integrand, width: int, anchor: float,
                stops, tol: float, resolution: float = OSCILLATION_RESOLUTION,
                cap: float = np.inf):
    """Carry a transport from ``anchor`` through the monotone ``stops``.

    The integral of ``integrand(t, r, x)`` (``width`` complex entries; r the
    scale value, x the transport state) from ``anchor`` rides along as
    augmented state, so one adaptive stepper and one error budget cover
    both.  The step ceiling allows ``resolution`` radians of phase per step
    and at most ``cap``.  Returns one (state, integral) pair per stop.
    """
    x0 = transport.at(anchor)
    k = x0.size
    scale = transport.scale
    if integrand is None:
        rhs = transport.derivative
    else:
        def rhs(t, y):
            r = scale.value(t)
            x = y[:k]
            return np.concatenate([transport.rhs(r, x), integrand(t, r, x)])
    post = None
    if transport.restore is not None:
        def post(t, y):
            y = y.copy()
            y[:k] = transport.restore(t, y[:k])
            return y
    ceiling = step_ceiling(transport.frequency, scale, resolution, cap)
    states = integrate_with_checkpoints(
        rhs, anchor, stops, np.concatenate([x0, np.zeros(width, dtype=complex)]),
        rtol=tol, atol=tol * 1e-2, max_step=ceiling, post_accept=post)
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


def support_integral(transport: Transport, integrand, width: int,
                     phi: TestFunction, tol: float) -> np.ndarray:
    """Integral over a probe's support; steps are also capped at width/16."""
    a, b = phi.support
    return interval_integral(transport, integrand, width, a, b, tol,
                             cap=(b - a) / 16.0)


def _exact(mode: Mode, scale: ScaleFunction, tol: float):
    """The exact transport of one mode and its propagator U(tau)."""
    return (exact_transport((mode,), scale, mode.tau0, tol),
            lambda r, x: x.reshape(2, 2))


def _wkb(mode: Mode, scale: ScaleFunction):
    """The WKB phase transport and its propagator V(tau)^-1 D(psi) V(tau0)."""
    v0 = diagonalizer(mode, scale.value(mode.tau0))
    return (phase_transport(mode, scale),
            lambda r, x: wkb_propagator_raw(diagonalizer(mode, r), v0, x[0].real))


def _signature(mode: Mode, scale: ScaleFunction, tol: float, ode_tol: float,
               closed_form, lifetime_integral) -> SignatureResult:
    """Closed form on piecewise scales, else lifetime quadrature of U^dagger sigma3 U R.

    ``lifetime_integral(lo, hi)`` gives the 2x2 integral between the
    endpoint cutoffs.
    """
    check_ode_tol(ode_tol)
    check_mode_scale(mode, scale)
    scale_bound = scale.lifetime_integral()
    if isinstance(scale, PiecewiseConstantScale):
        return _finish_signature(closed_form(mode, scale),
                                 1e-13 * max(scale_bound, 1.0), scale_bound)

    d_lo, d_hi = _choose_cutoffs(scale, tol)
    acc = lifetime_integral(d_lo, scale.tau_end - d_hi)
    quad_error = (scale.tail_below(d_lo) + scale.tail_above(d_hi)
                  + ode_tol * scale_bound)
    return _finish_signature(acc, quad_error, scale_bound)


def _piecewise_signature(mode: Mode, scale: PiecewiseConstantScale) -> np.ndarray:
    from .bloch import piecewise_signature_vector
    from .model import SIGMA1, SIGMA2

    svec = piecewise_signature_vector(mode, scale)
    return svec[0] * SIGMA1 + svec[1] * SIGMA2 + svec[2] * SIGMA3


def signature_operator(mode: Mode, scale: ScaleFunction,
                       tol: float = DEFAULT_QUAD_TOL,
                       ode_tol: float = DEFAULT_ODE_TOL) -> SignatureResult:
    """The signature matrix by lifetime quadrature of U^dagger sigma3 U R."""
    def lifetime_integral(lo, hi):
        transport, propagator = _exact(mode, scale, ode_tol)

        def integrand(t, r, x):
            u = propagator(r, x)
            return ((u.conj().T @ SIGMA3 @ u) * r).ravel()

        return interval_integral(transport, integrand, 4, lo, hi,
                                 ode_tol).reshape(2, 2)

    return _signature(mode, scale, tol, ode_tol, _piecewise_signature,
                      lifetime_integral)


def _wkb_piecewise_signature(mode: Mode, scale: PiecewiseConstantScale) -> np.ndarray:
    """Closed-form WKB signature for piecewise scales.

    Within a segment the frame is constant and the phase linear, so the
    conjugated matrix splits into a constant part and a uniformly rotating
    off-diagonal part whose time integral is elementary.
    """
    v0 = diagonalizer(mode, scale.value(mode.tau0))
    total = np.zeros((2, 2), dtype=complex)
    widths = np.diff(scale.breakpoints)
    for start, dt, r in zip(scale.breakpoints, widths, scale.values):
        f = frequency(mode, r)
        v = diagonalizer(mode, r)
        y = v @ SIGMA3 @ v.conj().T
        psi0 = accumulated_phase(mode, scale, mode.tau0, start)
        # integral of e^{2 i psi} over the segment, psi linear with slope f
        osc = np.exp(2j * psi0) * (np.exp(2j * f * dt) - 1.0) / (2j * f)
        block = np.array([[y[0, 0] * dt, y[0, 1] * osc],
                          [y[1, 0] * np.conj(osc), y[1, 1] * dt]])
        total += r * (v0.conj().T @ block @ v0)
    return total


def signature_operator_wkb(mode: Mode, scale: ScaleFunction,
                           tol: float = DEFAULT_QUAD_TOL,
                           ode_tol: float = DEFAULT_ODE_TOL) -> SignatureResult:
    """Signature quadrature with the WKB propagator in place of the exact one.

    With Y = V sigma3 V^dagger the conjugated integrand is V0^dagger
    [[Y00 R, Y01 R e^{2 i psi}], [c.c., -Y00 R]] V0; on smooth scales its
    two integrals are Levin quadratures against the phase.
    """
    def lifetime_integral(lo, hi):
        def integrand(t, r):
            # Y00 R and Y01 R from the real frame's entries
            (v00, v01), (v10, v11) = diagonalizer(mode, r).real.tolist()
            return ((v00 * v00 - v01 * v01) * r, (v00 * v10 - v01 * v11) * r)

        mass, osc = levin_integral(mode, scale, integrand, (0.0, 2.0), lo, hi,
                                   ode_tol)
        v0 = diagonalizer(mode, scale.value(mode.tau0))
        return v0.conj().T @ np.array([[mass, osc], [np.conj(osc), -mass]]) @ v0

    return _signature(mode, scale, tol, ode_tol, _wkb_piecewise_signature,
                      lifetime_integral)


def _mass_term_integral(mode: Mode, scale: ScaleFunction) -> float:
    """integral of m R^2 / f over the lifetime (smooth, non-oscillatory)."""
    if isinstance(scale, PiecewiseConstantScale):
        widths = np.diff(scale.breakpoints)
        return float(sum(mode.mass * r * r / frequency(mode, r) * dt
                         for r, dt in zip(scale.values, widths)))
    val, _ = quad(lambda t: mode.mass * scale.value(t) ** 2
                  / frequency(mode, scale.value(t)),
                  0.0, scale.tau_end, limit=400, epsabs=1e-12, epsrel=1e-12)
    return float(val)


def wkb_signature_leading_term(mode: Mode, scale: ScaleFunction) -> Hermitian2:
    """Non-oscillatory part of the WKB signature.

    The mass-term integral times the tau0 frame's conjugated sigma3; the
    remainder of the WKB signature is suppressed by one power of the mass.
    """
    check_mode_scale(mode, scale)
    v0 = diagonalizer(mode, scale.value(mode.tau0))
    coeff = _mass_term_integral(mode, scale)
    return Hermitian2(coeff * (v0.conj().T @ SIGMA3 @ v0))


@dataclass(frozen=True)
class WkbScalarIntegrals:
    """The three lifetime integrals determining the WKB signature spectrum.

    mass_term = integral m R^2 / f;  cos_term / sin_term = integrals of
    (R / f) cos(phase) and (R / f) sin(phase) with phase = -2 * (frequency
    integral from tau0).  The oscillatory pair carries a factor lam in the
    signature, so it vanishes identically for decoupled modes.
    """

    mass_term: float
    cos_term: float
    sin_term: float


def wkb_scalar_integrals(mode: Mode, scale: ScaleFunction,
                         tol: float = DEFAULT_QUAD_TOL,
                         ode_tol: float = DEFAULT_ODE_TOL) -> WkbScalarIntegrals:
    check_mode_scale(mode, scale)
    if isinstance(scale, PiecewiseConstantScale):
        widths = np.diff(scale.breakpoints)
        mass_term = cos_term = sin_term = 0.0
        for start, dt, r in zip(scale.breakpoints, widths, scale.values):
            f = frequency(mode, r)
            psi0 = accumulated_phase(mode, scale, mode.tau0, start)
            mass_term += mode.mass * r * r / f * dt
            # phase(tau) = -2 psi(tau); cos is even in psi, sin flips sign
            cos_term += r / f * (np.sin(2 * (psi0 + f * dt)) - np.sin(2 * psi0)) / (2 * f)
            sin_term += r / f * (np.cos(2 * (psi0 + f * dt)) - np.cos(2 * psi0)) / (2 * f)
        return WkbScalarIntegrals(float(mass_term), float(cos_term), float(sin_term))

    check_ode_tol(ode_tol)
    d_lo, d_hi = _choose_cutoffs(scale, tol)

    def integrand(t, r, x):
        f = frequency(mode, r)
        ph = -2.0 * x[0].real
        return np.array([mode.mass * r * r / f,
                         r / f * np.cos(ph),
                         r / f * np.sin(ph)], dtype=complex)

    acc = interval_integral(phase_transport(mode, scale), integrand, 3, d_lo,
                            scale.tau_end - d_hi, ode_tol,
                            FINE_OSCILLATION_RESOLUTION)
    return WkbScalarIntegrals(float(acc[0].real), float(acc[1].real),
                              float(acc[2].real))


def wkb_eigenvalues_closed_form(mode: Mode, scale: ScaleFunction,
                                tol: float = DEFAULT_QUAD_TOL,
                                ode_tol: float = DEFAULT_ODE_TOL):
    """(mu_minus, mu_plus) of the WKB signature from the scalar integrals.

    Independent of the matrix quadrature: the WKB-conjugated integrand
    decomposes over an orthonormal traceless triple, so the spectrum is
    the +- Euclidean length of the three coefficients.
    """
    ints = wkb_scalar_integrals(mode, scale, tol=tol, ode_tol=ode_tol)
    mu = float(np.sqrt((mode.lam * ints.cos_term) ** 2
                       + (mode.lam * ints.sin_term) ** 2
                       + ints.mass_term ** 2))
    return -mu, mu


class Provenance(enum.Enum):
    EXACT = "exact"
    WKB = "wkb"
    WKB_LEADING_ORDER = "wkb_leading_order"


@dataclass(frozen=True)
class ProjectorOutput:
    """Image of a probe in the tau0 fiber, tagged with how it was computed."""

    value: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        v = np.asarray(self.value, dtype=complex).copy()
        if v.shape != (2,) or not np.all(np.isfinite(v)):
            raise InvalidParameter("projector output must be a finite 2-vector")
        v.setflags(write=False)
        object.__setattr__(self, "value", v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.value))


def _k_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction, tol: float,
             transported, provenance: Provenance) -> ProjectorOutput:
    check_ode_tol(tol)
    check_mode_scale(mode, scale, *phi.support)
    transport, propagator = transported()

    def integrand(t, r, x):
        return propagator(r, x).conj().T @ (SIGMA3 @ phi(t)) * r / TWO_PI

    return ProjectorOutput(value=support_integral(transport, integrand, 2, phi, tol),
                           provenance=provenance)


def k_m_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction,
              tol: float = DEFAULT_ODE_TOL) -> ProjectorOutput:
    """Causal-solution image of a probe, in the tau0 fiber.

    1/(2 pi) times the support integral of U^dagger sigma3 phi R,
    co-integrated with the propagator itself.
    """
    return _k_apply(mode, scale, phi, tol, lambda: _exact(mode, scale, tol),
                    Provenance.EXACT)


def k_wkb_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction,
                tol: float = DEFAULT_ODE_TOL) -> ProjectorOutput:
    """WKB counterpart of ``k_m_apply``.

    U_wkb^dagger sigma3 phi R / 2 pi = V0^dagger diag(e^{i psi}, e^{-i psi})
    w with w = V sigma3 phi R / 2 pi, so on smooth scales it is a Levin
    quadrature of the two phase branches.
    """
    if isinstance(scale, PiecewiseConstantScale):
        return _k_apply(mode, scale, phi, tol, lambda: _wkb(mode, scale),
                        Provenance.WKB)
    return ProjectorOutput(value=_wkb_branches(mode, scale, phi, (0, 1), tol),
                           provenance=Provenance.WKB)


def _wkb_branches(mode: Mode, scale: ScaleFunction, phi: TestFunction,
                  rows, tol: float) -> np.ndarray:
    """Levin route of the WKB probe images on a smooth scale.

    With w = V sigma3 phi R / 2 pi, returns the columns ``rows`` of
    V0^dagger times the support integrals of w[0] e^{i psi} (row 0) and
    w[1] e^{-i psi} (row 1).
    """
    check_ode_tol(tol)
    check_mode_scale(mode, scale, *phi.support)
    rows = list(rows)

    def integrand(t, r):
        return diagonalizer(mode, r)[rows] @ (SIGMA3 @ phi(t)) * (r / TWO_PI)

    vals = levin_integral(mode, scale, integrand, [1.0 - 2.0 * i for i in rows],
                          *phi.support, tol)
    v0 = diagonalizer(mode, scale.value(mode.tau0))
    return v0.conj().T[:, rows] @ vals


def _spectral_projection(sig: SignatureResult, sign: float,
                         gap_tol: float) -> Hermitian2:
    """Orthogonal projection onto the spectral subspace where sign * mu > 0.

    Refuses to choose a branch when an eigenvalue sits within
    ``gap_tol * max(norm, scale_bound)`` of zero: the split is genuinely
    unstable there and silently picking one would be wrong.
    """
    threshold = gap_tol * max(sig.norm(), sig.scale_bound)
    if min(abs(sig.mu_minus), abs(sig.mu_plus)) < threshold:
        raise DegenerateSignature(sig.mu_minus, sig.mu_plus, threshold)
    vecs = sig.eigvectors.matrix
    proj = np.zeros((2, 2), dtype=complex)
    for i, mu in enumerate(sig.eigenvalues):
        if sign * mu > 0:
            proj += np.outer(vecs[:, i], vecs[:, i].conj())
    return Hermitian2(proj)


def negative_projection(sig: SignatureResult,
                        gap_tol: float = DEFAULT_GAP_TOL) -> Hermitian2:
    """Projection onto the negative spectral subspace (the sea)."""
    return _spectral_projection(sig, -1.0, gap_tol)


def positive_projection(sig: SignatureResult,
                        gap_tol: float = DEFAULT_GAP_TOL) -> Hermitian2:
    return _spectral_projection(sig, 1.0, gap_tol)


def fermionic_projector_apply(mode: Mode, scale: ScaleFunction,
                              phi: TestFunction,
                              tol: float = DEFAULT_ODE_TOL,
                              quad_tol: float = DEFAULT_QUAD_TOL,
                              gap_tol: float = DEFAULT_GAP_TOL) -> ProjectorOutput:
    """P(phi) = -X_neg(S) k(phi); raises DegenerateSignature when S is unstable."""
    sig = signature_operator(mode, scale, tol=quad_tol, ode_tol=tol)
    proj = negative_projection(sig, gap_tol=gap_tol)
    km = k_m_apply(mode, scale, phi, tol=tol)
    return ProjectorOutput(value=-(proj.matrix @ km.value),
                           provenance=Provenance.EXACT)


class PWkbVariant(enum.Enum):
    FULL = "full"
    LEADING_ORDER = "leading_order"


def p_wkb_leading_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction,
                        tol: float = DEFAULT_ODE_TOL) -> ProjectorOutput:
    """Pure negative-frequency image: only the decaying phase branch survives."""
    if isinstance(scale, PiecewiseConstantScale):
        total = _p_wkb_leading_transported(mode, scale, phi, tol)
    else:
        total = -_wkb_branches(mode, scale, phi, (1,), tol)
    return ProjectorOutput(value=total, provenance=Provenance.WKB_LEADING_ORDER)


def _p_wkb_leading_transported(mode: Mode, scale: ScaleFunction,
                               phi: TestFunction, tol: float) -> np.ndarray:
    """The leading-order image with the phase carried by the stepper."""
    check_ode_tol(tol)
    check_mode_scale(mode, scale, *phi.support)
    v0 = diagonalizer(mode, scale.value(mode.tau0))

    def integrand(t, r, x):
        v = diagonalizer(mode, r)
        mid = v0.conj().T @ (np.array([0.0, np.exp(-1j * x[0].real)])[:, None] * v)
        return -mid @ (SIGMA3 @ phi(t)) * r / TWO_PI

    return support_integral(phase_transport(mode, scale), integrand, 2, phi, tol)


def p_wkb_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction,
                variant: PWkbVariant = PWkbVariant.FULL,
                tol: float = DEFAULT_ODE_TOL,
                quad_tol: float = DEFAULT_QUAD_TOL,
                gap_tol: float = DEFAULT_GAP_TOL) -> ProjectorOutput:
    """WKB projector image, either the full spectral form or the leading order."""
    if variant is PWkbVariant.LEADING_ORDER:
        return p_wkb_leading_apply(mode, scale, phi, tol=tol)
    sig = signature_operator_wkb(mode, scale, tol=quad_tol, ode_tol=tol)
    proj = negative_projection(sig, gap_tol=gap_tol)
    kw = k_wkb_apply(mode, scale, phi, tol=tol)
    return ProjectorOutput(value=-(proj.matrix @ kw.value),
                           provenance=Provenance.WKB)
