"""Signature operator, causal fundamental solution, and the mode projector.

Per mode, the indefinite space-time pairing is represented on the 2-dim
fiber at tau0 by the Hermitian signature matrix

    S = integral over the lifetime of  U(tau)^dagger sigma3 U(tau) R(tau),

the causal fundamental solution maps a probe phi to

    k(phi) = 1/(2 pi) * integral of U(tau)^dagger sigma3 phi(tau) R(tau),

and the projector onto the filled states is  P(phi) = -X_neg(S) k(phi)
with X_neg the spectral projection onto S's negative subspace.  WKB
counterparts replace U by the frame-and-phase propagator.

The WKB integrals are Levin quadratures against the phase
(``levin.levin_integral``), whose cost does not grow with m * r_max.  So
are the exact k and trace integrals on piecewise-constant scales: there
the exact propagator is the WKB one times a constant per segment, and
each image is one walk, with one panel budget, whose per-piece rows
``_segments`` conjugates; both signatures have closed forms.  On smooth scales
the exact integrals ride as augmented state on a transport (exact U, or
the WKB phase for the ``wkb_scalar_integrals`` oracle) through
``evolution.interval_integral``, one ``evolution.cointegrate`` sweep per
leg, so one adaptive stepper and one error budget cover propagator and
integrals; P(phi) carries S's integrand and k's in one sweep.  Every
lifetime integral opens with the scale's ``window``: the whole closed
lifetime on a piecewise scale, and on a smooth one the lifetime less
endpoint cutoffs that shrink until the rigorous tail bound (the integrand
norm is at most R) drops below the requested tolerance; tau0 and probe
supports are checked against the scale's domain (``check_domain``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bloch import piecewise_signature_vector
from .errors import DegenerateSignature
from .evolution import (
    accumulated_phase,
    diagonalizer,
    exact_transport,
    frequency,
    interval_integral,
    phase_transport,
    sigma3_conjugated,
    wkb_deviations,
)
from .levin import levin_integral
from .model import (
    DEFAULT_GAP_TOL,
    DEFAULT_ODE_TOL,
    DEFAULT_QUAD_TOL,
    Hermitian2,
    Mode,
    ScaleFunction,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    TestFunction,
    Unitary2,
    check_tolerances,
    frozen_array,
    smooth_integrals,
)
# perfbench/test_perfbench.py reads ``projector.integrate``; keep it bound.
from .stepper import integrate  # noqa: F401

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


def _signature_error(scale: ScaleFunction, tail: float, ode_tol: float):
    """(quad error estimate, scale bound) of S: rounding for a closed form on a
    piecewise scale, else the window's tail plus the ode tolerance's share."""
    bound = scale.lifetime_integral()
    return (1e-13 * max(bound, 1.0) if scale.is_piecewise
            else tail + ode_tol * bound), bound


def signature_operator(mode: Mode, scale: ScaleFunction,
                       tol: float = DEFAULT_QUAD_TOL,
                       ode_tol: float = DEFAULT_ODE_TOL) -> SignatureResult:
    """The signature matrix: the SO(3) closed form on piecewise scales, else the
    quadrature of U^dagger sigma3 U R over the scale's window."""
    check_tolerances(ode_tol=ode_tol)
    lo, hi, tail = scale.window(tol)
    scale.check_domain(mode.tau0)
    if scale.is_piecewise:
        svec = piecewise_signature_vector(mode, scale)
        s = svec[0] * SIGMA1 + svec[1] * SIGMA2 + svec[2] * SIGMA3
    else:
        (acc,) = interval_integral(exact_transport((mode,), scale, mode.tau0),
                                   lambda t, r, x: sigma3_conjugated(x, r), 4,
                                   [(lo, hi)], ode_tol)
        s = acc.reshape(2, 2)
    return _finish_signature(s, *_signature_error(scale, tail, ode_tol))


def signature_operator_wkb(mode: Mode, scale: ScaleFunction,
                           tol: float = DEFAULT_QUAD_TOL,
                           ode_tol: float = DEFAULT_ODE_TOL) -> SignatureResult:
    """Signature quadrature with the WKB propagator in place of the exact one.

    On smooth scales the lifetime integral is ``_sigma3_integral``'s Levin
    quadrature; on piecewise scales, where Y00 R = m R^2 / f and
    Y01 R = |lam| R / f, its two integrals are the closed forms of
    ``wkb_scalar_integrals``.
    """
    check_tolerances(ode_tol=ode_tol)
    lo, hi, tail = scale.window(tol)
    scale.check_domain(mode.tau0)
    if scale.is_piecewise:
        ints = wkb_scalar_integrals(mode, scale)
        s = _conjugated(diagonalizer(mode, scale.value(mode.tau0)), ints.mass_term,
                        abs(mode.lam) * (ints.cos_term - 1j * ints.sin_term))
    else:
        s = _sigma3_integral(mode, scale, lo, hi, ode_tol)
    return _finish_signature(s, *_signature_error(scale, tail, ode_tol))


def _segments(mode: Mode, scale: ScaleFunction, integrand, omegas, lo: float,
              hi: float, tol: float, exact: bool):
    """(C, Levin integral against e^{i omegas psi}) pairs covering [lo, hi]: one walk.

    WKB route: one pair, C = V0, the walk's rows summed.  Exact route (piecewise
    scales): C = V0 W for each row, a piece.  The WKB deviation W = U_wkb^dagger U
    has a generator proportional to R', so it is constant on a segment, where
    U = U_wkb W; it is taken at the piece's midpoint.
    """
    v0 = diagonalizer(mode, scale.value(mode.tau0))
    rows = levin_integral(mode, scale, integrand, omegas, lo, hi, tol)
    if not exact:
        return [(v0, rows.sum(axis=0))]
    mids = [0.5 * (a + b) for a, b, _ in scale.pieces(lo, hi)]
    return zip(v0 @ wkb_deviations(mode, scale, mids), rows)


def _conjugated(c, mass, osc) -> np.ndarray:
    return c.conj().T @ np.array([[mass, osc], [np.conj(osc), -mass]]) @ c


def _sigma3_integral(mode: Mode, scale: ScaleFunction, lo: float, hi: float,
                     tol: float, exact: bool = False) -> np.ndarray:
    """integral over [lo, hi] of U^dagger sigma3 U R, summed over ``_segments``.

    With Y = V sigma3 V^dagger, U_wkb^dagger sigma3 U_wkb R is
    V0^dagger [[Y00 R, Y01 R e^{2 i psi}], [c.c., -Y00 R]] V0.
    """
    def integrand(ts, rs):
        # Y00 R and Y01 R from the real frames' entries
        (v00, v01), (v10, v11) = diagonalizer(mode, rs).real.transpose(1, 2, 0)
        return np.stack([(v00 * v00 - v01 * v01) * rs,
                         (v00 * v10 - v01 * v11) * rs], axis=-1)

    return sum(_conjugated(c, *vals) for c, vals
               in _segments(mode, scale, integrand, (0.0, 2.0), lo, hi, tol, exact))


def _mass_term_integral(mode: Mode, scale: ScaleFunction) -> float:
    """integral of m R^2 / f over the lifetime (smooth, non-oscillatory)."""
    if scale.is_piecewise:
        return wkb_scalar_integrals(mode, scale).mass_term
    # f vanishes only where R does, at lam = 0: there m R^2 / f is R = 0, not 0/0
    return float(smooth_integrals(lambda t: mode.mass * scale.value(t) ** 2 / np.maximum(
        frequency(mode, scale.value(t)), np.finfo(float).tiny), 0.0, scale.tau_end)[0])


def wkb_signature_leading_term(mode: Mode, scale: ScaleFunction) -> Hermitian2:
    """Non-oscillatory part of the WKB signature.

    The mass-term integral times the tau0 frame's conjugated sigma3; the
    remainder of the WKB signature is suppressed by one power of the mass.
    """
    scale.check_domain(mode.tau0)
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
    check_tolerances(ode_tol=ode_tol)
    lo, hi, _ = scale.window(tol)
    scale.check_domain(mode.tau0)
    if scale.is_piecewise:
        r, dt = np.array(scale.values), np.diff(scale.breakpoints)
        f = frequency(mode, r)
        # psi at every segment start: one running sum from tau = 0, less psi(tau0)
        psi0 = (np.concatenate([[0.0], np.cumsum(f * dt)[:-1]])
                - accumulated_phase(mode, scale, 0.0, mode.tau0))
        # phase(tau) = -2 psi(tau); cos is even in psi, sin flips sign, and
        # each sum runs in segment order
        return WkbScalarIntegrals(*(float(sum(terms.tolist())) for terms in (
            mode.mass * r * r / f * dt,
            r / f * (np.sin(2 * (psi0 + f * dt)) - np.sin(2 * psi0)) / (2 * f),
            r / f * (np.cos(2 * (psi0 + f * dt)) - np.cos(2 * psi0)) / (2 * f))))

    def integrand(t, r, x):
        f = frequency(mode, r)
        ph = -2.0 * x[0].real
        return np.array([mode.mass * r * r / f,
                         r / f * np.cos(ph),
                         r / f * np.sin(ph)], dtype=complex)

    (acc,) = interval_integral(phase_transport(mode, scale), integrand, 3, [(lo, hi)],
                               ode_tol)
    return WkbScalarIntegrals(*map(float, acc.real))


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
        object.__setattr__(self, "value", frozen_array(self.value, (2,), "projector output"))

    def norm(self) -> float:
        return float(np.linalg.norm(self.value))


def _probe_integrand(phi: TestFunction):
    """k(phi)'s integrand on an exact transport, U^dagger sigma3 phi R / 2 pi,
    and the step cap inside the support: a sixteenth of it."""
    def integrand(t, r, x):
        # U = [[a, b], [c, d]], phi = (p, q)
        a, b, c, d = x.tolist()
        p, q = phi(t).tolist()
        return ((a.conjugate() * p - c.conjugate() * q) * r / TWO_PI,
                (b.conjugate() * p - d.conjugate() * q) * r / TWO_PI)

    lo, hi = phi.support
    return integrand, (hi - lo) / 16.0


def k_m_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction,
              tol: float = DEFAULT_ODE_TOL) -> ProjectorOutput:
    """Causal-solution image of a probe, in the tau0 fiber.

    1/(2 pi) times the support integral of U^dagger sigma3 phi R.  On
    smooth scales it is co-integrated with the propagator itself; on
    piecewise scales it is the WKB Levin route with each segment's sum
    conjugated by the constant WKB deviation there (``_segments``).
    """
    if scale.is_piecewise:
        return ProjectorOutput(_wkb_branches(mode, scale, phi, (0, 1), tol, True),
                               Provenance.EXACT)
    scale.check_domain(mode.tau0, *phi.support)
    integrand, cap = _probe_integrand(phi)
    (image,) = interval_integral(exact_transport((mode,), scale, mode.tau0),
                                 integrand, 2, [phi.support], tol, [cap])
    return ProjectorOutput(image, Provenance.EXACT)


def k_wkb_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction,
                tol: float = DEFAULT_ODE_TOL) -> ProjectorOutput:
    """WKB counterpart of ``k_m_apply``.

    U_wkb^dagger sigma3 phi R / 2 pi = V0^dagger diag(e^{i psi}, e^{-i psi})
    w with w = V sigma3 phi R / 2 pi, so it is a Levin quadrature of the
    two phase branches.
    """
    return ProjectorOutput(value=_wkb_branches(mode, scale, phi, (0, 1), tol),
                           provenance=Provenance.WKB)


def _wkb_branches(mode: Mode, scale: ScaleFunction, phi: TestFunction,
                  rows, tol: float, exact: bool = False) -> np.ndarray:
    """Levin route of the probe images.

    With w = V sigma3 phi R / 2 pi, returns the columns ``rows`` of
    C^dagger times the support integrals of w[0] e^{i psi} (row 0) and
    w[1] e^{-i psi} (row 1), summed over ``_segments``: C = V0 gives the
    WKB image, C = V0 W per segment the exact one on a piecewise scale.
    """
    _check_probe(mode, scale, phi, tol)
    rows = list(rows)

    def integrand(ts, rs):
        w = diagonalizer(mode, rs)[:, rows] @ (SIGMA3 @ phi(ts[:, None])[..., None])
        return w[..., 0] * (rs / TWO_PI)[:, None]

    return sum(c.conj().T[:, rows] @ vals for c, vals
               in _segments(mode, scale, integrand, [1.0 - 2.0 * i for i in rows],
                            *phi.support, tol, exact))


def _check_probe(mode: Mode, scale: ScaleFunction, phi: TestFunction, tol: float):
    """The ode tolerance, tau0 and the probe support, checked before any integral."""
    check_tolerances(ode_tol=tol)
    scale.check_domain(mode.tau0, *phi.support)


def _spectral_projection(sig: SignatureResult, sign: float,
                         gap_tol: float) -> Hermitian2:
    """Orthogonal projection onto the spectral subspace where sign * mu > 0.

    Refuses to choose a branch when an eigenvalue sits within
    ``gap_tol * max(norm, scale_bound)`` of zero: the split is genuinely
    unstable there and silently picking one would be wrong.
    """
    check_tolerances(gap_tol=gap_tol)
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
    """P(phi) = -X_neg(S) k(phi); raises DegenerateSignature when S is unstable.

    On smooth scales S's integrand and k(phi)'s ride one sweep per leg, its
    steps capped inside the probe's support only.
    """
    _check_probe(mode, scale, phi, tol)
    check_tolerances(gap_tol=gap_tol)
    lo, hi, tail = scale.window(quad_tol)
    if scale.is_piecewise:
        sig = signature_operator(mode, scale, tol=quad_tol, ode_tol=tol)
        image = k_m_apply(mode, scale, phi, tol=tol).value
    else:
        (a, b), (probe, cap) = phi.support, _probe_integrand(phi)

        def integrand(t, r, x):
            # phi vanishes off its support, so k's part is not evaluated there
            return [*sigma3_conjugated(x, r), *(probe(t, r, x) if a <= t <= b
                                                else (0j, 0j))]

        s, k = interval_integral(exact_transport((mode,), scale, mode.tau0),
                                 integrand, 6, [(lo, hi), (a, b)], tol, [np.inf, cap])
        sig = _finish_signature(s[:4].reshape(2, 2),
                                *_signature_error(scale, tail, tol))
        image = k[4:]
    return ProjectorOutput(-(negative_projection(sig, gap_tol=gap_tol).matrix @ image),
                           Provenance.EXACT)


def p_wkb_leading_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction,
                        tol: float = DEFAULT_ODE_TOL) -> ProjectorOutput:
    """Pure negative-frequency image: only the decaying phase branch survives."""
    return ProjectorOutput(value=-_wkb_branches(mode, scale, phi, (1,), tol),
                           provenance=Provenance.WKB_LEADING_ORDER)


def p_wkb_apply(mode: Mode, scale: ScaleFunction, phi: TestFunction,
                tol: float = DEFAULT_ODE_TOL,
                quad_tol: float = DEFAULT_QUAD_TOL,
                gap_tol: float = DEFAULT_GAP_TOL) -> ProjectorOutput:
    """WKB projector image in the full spectral form, -X_neg(S_wkb) k_wkb(phi)."""
    _check_probe(mode, scale, phi, tol)
    check_tolerances(gap_tol=gap_tol)
    sig = signature_operator_wkb(mode, scale, tol=quad_tol, ode_tol=tol)
    proj = negative_projection(sig, gap_tol=gap_tol)
    kw = k_wkb_apply(mode, scale, phi, tol=tol)
    return ProjectorOutput(value=-(proj.matrix @ kw.value),
                           provenance=Provenance.WKB)
