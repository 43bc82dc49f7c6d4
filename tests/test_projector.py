import functools

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from diracsea import levin, projector
from diracsea.bloch import build_twelve_segment, make_scenario, perturb_scenario
from diracsea.errors import (ConvergenceFailure, DegenerateSignature, DomainError,
                             InvalidParameter)
from diracsea.evolution import (
    accumulated_phase,
    diagonalizer,
    evolve,
    frequency,
    segment_propagator,
    wkb_evolve,
)
from diracsea.model import (
    Mode,
    PiecewiseConstantScale,
    SIGMA1,
    SIGMA3,
    bump,
    complex_bump,
    constant_scale,
    dust_scale,
    is_physical_eigenvalue,
    spectral_norm,
)
from diracsea.levin import levin_integral
from diracsea.projector import (
    Provenance,
    PWkbVariant,
    _finish_signature,
    _k_apply,
    _wkb,
    fermionic_projector_apply,
    k_m_apply,
    k_wkb_apply,
    negative_projection,
    p_wkb_apply,
    p_wkb_leading_apply,
    positive_projection,
    signature_operator,
    signature_operator_wkb,
    wkb_eigenvalues_closed_form,
    wkb_scalar_integrals,
    wkb_signature_leading_term,
)

TAU0 = float(np.pi / 2)


def research_mode(lam, mass=1.0, tau0=TAU0):
    return Mode(lam=lam, mass=mass, tau0=tau0, physical=False)


class TestSignatureOperator:
    def test_decoupled_mode_is_diagonal_lifetime_integral(self):
        # lam = 0: the propagator commutes with sigma3, so S = (integral R) sigma3
        mode = research_mode(0.0)
        sc = dust_scale(3.0)
        sig = signature_operator(mode, sc, tol=1e-10)
        want = 3.0 * np.pi / 2  # integral of (1 - cos)/2 over (0, pi)
        assert sig.mu_plus == pytest.approx(want, rel=1e-8)
        assert sig.mu_minus == pytest.approx(-want, rel=1e-8)
        off = abs(sig.s.matrix[0, 1]) + abs(sig.s.matrix[1, 0])
        assert off < 1e-8

    def test_traceless_and_hermitian(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sig = signature_operator(mode, dust_scale(7.0))
        m = sig.s.matrix
        assert spectral_norm(m - m.conj().T) < 1e-12 * max(1.0, spectral_norm(m))
        assert abs(np.trace(m)) < 1e-8

    def test_eigendecomposition_reconstructs(self):
        mode = Mode(lam=2.5, mass=1.0, tau0=TAU0)
        sig = signature_operator(mode, dust_scale(5.0))
        v = sig.eigvectors.matrix
        rebuilt = v @ np.diag(sig.eigenvalues) @ v.conj().T
        assert spectral_norm(rebuilt - sig.s.matrix) \
            < 1e-12 * max(1.0, sig.norm())

    @pytest.mark.parametrize("tau0", [0.0, 1.3])
    def test_piecewise_closed_form_vs_quadrature_oracle(self, tau0):
        # brute force: Simpson over each segment with exact propagators from
        # tau = 0, then conjugated by W = U(tau0 <- 0); 1.3 lies in the
        # second segment
        mode = Mode(lam=1.5, mass=1.0, tau0=tau0)
        sc = PiecewiseConstantScale(breakpoints=(0.0, 0.9, 1.7, 2.8),
                                    values=(2.2, 0.7, 1.4))
        sig = signature_operator(mode, sc)
        w = (segment_propagator(mode, 0.7, tau0 - 0.9)
             @ segment_propagator(mode, 2.2, 0.9)) if tau0 else np.eye(2)
        acc = np.zeros((2, 2), dtype=complex)
        u_start = np.eye(2, dtype=complex)
        widths = np.diff(sc.breakpoints)
        for r, dt in zip(sc.values, widths):
            ts = np.linspace(0.0, dt, 3001)
            vals = np.empty((len(ts), 2, 2), dtype=complex)
            for i, t in enumerate(ts):
                u = segment_propagator(mode, r, t) @ u_start
                vals[i] = u.conj().T @ SIGMA3 @ u * r
            acc += simpson(vals, x=ts, axis=0)
            u_start = segment_propagator(mode, r, dt) @ u_start
        assert spectral_norm(sig.s.matrix - w @ acc @ w.conj().T) < 1e-8

    def test_scale_bound_is_ceiling(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(4.0)
        sig = signature_operator(mode, sc)
        assert sig.norm() <= sig.scale_bound + 1e-9


class TestWkbSignature:
    def test_constant_scale_matches_exact(self):
        mode = research_mode(1.2, mass=0.8)
        sc = constant_scale(2.0)
        tol = 1e-10
        s = signature_operator(mode, sc, tol=1e-10, ode_tol=tol)
        sw = signature_operator_wkb(mode, sc, tol=1e-10, ode_tol=tol)
        assert spectral_norm(s.s.matrix - sw.s.matrix) < 10 * tol * s.norm()

    @pytest.mark.parametrize("r_max", [10.0])
    def test_eigenvalues_match_closed_form(self, r_max):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(r_max)
        sw = signature_operator_wkb(mode, sc, tol=1e-10, ode_tol=1e-11)
        mu_m, mu_p = wkb_eigenvalues_closed_form(mode, sc, tol=1e-10,
                                                 ode_tol=1e-11)
        assert sw.mu_plus == pytest.approx(mu_p, rel=1e-6)
        assert sw.mu_minus == pytest.approx(mu_m, rel=1e-6)

    def test_closed_form_is_symmetric_pair(self):
        mode = Mode(lam=2.5, mass=1.0, tau0=TAU0)
        mu_m, mu_p = wkb_eigenvalues_closed_form(mode, dust_scale(6.0))
        assert mu_m == -mu_p

    def test_decoupled_mode_eigenvalue_is_lifetime_integral(self):
        mode = research_mode(0.0)
        sc = dust_scale(2.0)
        _, mu_p = wkb_eigenvalues_closed_form(mode, sc)
        assert mu_p == pytest.approx(sc.lifetime_integral(), rel=1e-8)

    def test_piecewise_closed_form_vs_quadrature_oracle(self):
        # oracle: per-segment Simpson quadrature of the WKB-conjugated
        # integrand (the integrand is smooth inside each segment)
        mode = Mode(lam=1.5, mass=1.0, tau0=0.0)
        sc = PiecewiseConstantScale(breakpoints=(0.0, 1.1, 2.3),
                                    values=(1.8, 0.6))
        sw = signature_operator_wkb(mode, sc)
        v0 = diagonalizer(mode, sc.value(0.0))
        oracle = np.zeros((2, 2), dtype=complex)
        for lo, hi in zip(sc.breakpoints, sc.breakpoints[1:]):
            ts = np.linspace(lo, hi - 1e-12, 4001)
            vals = np.empty((len(ts), 2, 2), dtype=complex)
            for i, t in enumerate(ts):
                r = sc.value(t)
                v = diagonalizer(mode, r)
                psi = accumulated_phase(mode, sc, 0.0, t)
                d = np.diag([np.exp(-1j * psi), np.exp(1j * psi)])
                uw = v.conj().T @ d @ v0
                vals[i] = uw.conj().T @ SIGMA3 @ uw * r
            oracle += simpson(vals, x=ts, axis=0)
        assert spectral_norm(sw.s.matrix - oracle) < 1e-8

    def test_leading_term_eigenvalues(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(5.0)
        lead = wkb_signature_leading_term(mode, sc)
        coeff, _ = quad(lambda t: sc.value(t) ** 2 / frequency(mode, sc.value(t)),
                        0, np.pi, limit=200)
        evals = np.linalg.eigvalsh(lead.matrix)
        assert evals[1] == pytest.approx(coeff, rel=1e-9)
        assert evals[0] == pytest.approx(-coeff, rel=1e-9)

    @pytest.mark.parametrize("lam", [1.5, -2.5])
    def test_leading_term_on_piecewise_scale(self, lam):
        # the mass-term integral is the segment sum of m r^2 / f * width
        mode = Mode(lam=lam, mass=1.3, tau0=0.9)
        sc = PiecewiseConstantScale(breakpoints=(0.0, 0.7, 1.1, 1.6, 2.4, 3.0),
                                    values=(2.0, 0.8, 3.5, 1.3, 2.6))
        coeff = sum(mode.mass * r * r / frequency(mode, r) * (b - a)
                    for a, b, r in sc.pieces(0.0, sc.tau_end))
        v0 = diagonalizer(mode, sc.value(mode.tau0))
        lead = wkb_signature_leading_term(mode, sc).matrix
        assert spectral_norm(lead - coeff * (v0.conj().T @ SIGMA3 @ v0)) \
            <= 1e-14 * coeff

    def test_leading_term_error_shrinks_with_mass(self):
        # residual after removing the leading term decays like 1/m: the
        # mass-weighted residual stays below its smallest-mass value
        sups = {}
        for mass in (10.0, 100.0, 1000.0):
            mode = research_mode(1.5, mass=mass)
            sc = dust_scale(1.0)
            sw = signature_operator_wkb(mode, sc, tol=1e-10, ode_tol=1e-10)
            lead = wkb_signature_leading_term(mode, sc)
            sups[mass] = spectral_norm(sw.s.matrix - lead.matrix) * mass
        assert sups[100.0] <= 1.1 * sups[10.0]
        assert sups[1000.0] <= 1.1 * sups[10.0]

    def test_decoupled_mode_leading_term_equals_wkb(self):
        # the oscillatory terms carry a factor lam, hence vanish at lam = 0
        mode = research_mode(0.0)
        sc = dust_scale(2.0)
        sw = signature_operator_wkb(mode, sc, tol=1e-11)
        lead = wkb_signature_leading_term(mode, sc)
        assert spectral_norm(sw.s.matrix - lead.matrix) < 1e-8

    def test_oscillatory_integral_damping(self):
        # the cos-phase lifetime integral is capped by (monotone pieces) * pi/2|lam m|
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(10.0)
        ints = wkb_scalar_integrals(mode, sc, tol=1e-10)
        ts = np.linspace(1e-3, np.pi - 1e-3, 2001)
        dr = np.diff([sc.value(t) for t in ts])
        pieces = 1 + int(np.sum(np.diff(np.sign(dr[np.abs(dr) > 1e-14])) != 0))
        cap = pieces * np.pi / (2 * abs(mode.lam * mode.mass))
        assert abs(ints.cos_term) <= cap
        assert abs(ints.sin_term) <= cap


class TestCausalSolution:
    def test_zero_probe_maps_to_zero(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 0.0)
        out = k_m_apply(mode, dust_scale(5.0), phi)
        assert np.all(out.value == 0.0)

    def test_norm_bound(self):
        mode = Mode(lam=2.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(9.0)
        phi = bump((0.8, 2.2), np.array([1.0, 1.0j]), 1.3)
        out = k_m_apply(mode, sc, phi)
        assert out.norm() <= sc.r_max * phi.l1_norm / (2 * np.pi) + 1e-12

    def test_narrow_bump_delta_limit(self):
        # as the bump narrows, k(phie) approaches the frozen-integrand value
        # at the center, quadratically in the width
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(3.0)
        center = 2.0
        errs = []
        for width in (0.2, 0.1):
            a, b = center - width / 2, center + width / 2
            phi = bump((a, b), np.array([1.0, 0.0]), 1.0)
            mass = quad(lambda t: float(np.abs(phi(t)[0])), a, b)[0]
            u = evolve(mode, sc, mode.tau0, center, tol=1e-11).u.matrix
            frozen = (u.conj().T @ SIGMA3 @ np.array([mass, 0.0])
                      * sc.value(center) / (2 * np.pi))
            out = k_m_apply(mode, sc, phi, tol=1e-11)
            errs.append(np.linalg.norm(out.value - frozen) / mass)
        assert errs[1] <= errs[0] / 2.5  # ~ width^2 contraction (factor 4)

    def test_exact_vs_wkb_on_constant_scale(self):
        mode = research_mode(1.5)
        sc = constant_scale(2.0)
        phi = bump((1.0, 2.0), np.array([0.0, 1.0]), 1.0)
        a = k_m_apply(mode, sc, phi, tol=1e-11)
        b = k_wkb_apply(mode, sc, phi, tol=1e-11)
        assert np.linalg.norm(a.value - b.value) < 1e-9

    def test_anchor_outside_support(self):
        # tau0 below and above the support both reduce to the same integral
        sc = dust_scale(5.0)
        phi = bump((1.2, 1.9), np.array([1.0, 0.0]), 1.0)
        lo = Mode(lam=1.5, mass=1.0, tau0=0.4)
        inside = Mode(lam=1.5, mass=1.0, tau0=1.5)
        hi = Mode(lam=1.5, mass=1.0, tau0=2.8)
        k_lo = k_m_apply(lo, sc, phi, tol=1e-11).value
        k_in = k_m_apply(inside, sc, phi, tol=1e-11).value
        k_hi = k_m_apply(hi, sc, phi, tol=1e-11).value
        # different anchors give values in different fibers; transport back
        u_lo = evolve(lo, sc, 0.4, 1.5, tol=1e-11).u.matrix
        u_hi = evolve(hi, sc, 2.8, 1.5, tol=1e-11).u.matrix
        assert np.linalg.norm(u_lo @ k_lo - k_in) < 1e-9
        assert np.linalg.norm(u_hi @ k_hi - k_in) < 1e-9


class TestNegativeProjection:
    def _sig(self, matrix, scale_bound=1.0):
        return _finish_signature(np.asarray(matrix, dtype=complex), 0.0,
                                 scale_bound)

    def test_diagonal_case(self):
        proj = negative_projection(self._sig(np.diag([1.0, -1.0])))
        assert np.allclose(proj.matrix, np.diag([0.0, 1.0]))

    def test_off_diagonal_case(self):
        proj = negative_projection(self._sig(SIGMA1))
        assert np.allclose(proj.matrix, 0.5 * np.array([[1, -1], [-1, 1]]))

    def test_idempotent_and_hermitian(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sig = signature_operator(mode, dust_scale(6.0))
        p = negative_projection(sig).matrix
        assert spectral_norm(p @ p - p) < 1e-12
        assert spectral_norm(p - p.conj().T) < 1e-12
        assert spectral_norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_signature_raises(self):
        from diracsea.bloch import build_twelve_segment

        scen = build_twelve_segment()
        sig = signature_operator(scen.mode, scen)
        with pytest.raises(DegenerateSignature) as err:
            negative_projection(sig)
        assert abs(err.value.mu_minus) < err.value.threshold

    @pytest.mark.parametrize("gap_tol", [0.0, -1e-6, np.inf, np.nan])
    def test_gap_tol_must_be_finite_and_positive(self, gap_tol):
        sig = self._sig(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidParameter):
            negative_projection(sig, gap_tol=gap_tol)

    def test_orthogonality_of_spectral_halves(self):
        mode = Mode(lam=2.5, mass=1.0, tau0=TAU0)
        sig = signature_operator(mode, dust_scale(4.0))
        p_minus = negative_projection(sig).matrix
        p_plus = positive_projection(sig).matrix
        assert spectral_norm(p_plus @ p_minus) < 1e-12
        assert spectral_norm(p_plus + p_minus - np.eye(2)) < 1e-12


class TestFermionicProjector:
    def test_zero_probe(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 0.0)
        out = fermionic_projector_apply(mode, dust_scale(5.0), phi)
        assert out.norm() == 0.0

    def test_wkb_variants_zero_probe(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(5.0)
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 0.0)
        assert p_wkb_apply(mode, sc, phi, variant=PWkbVariant.FULL).norm() == 0.0
        assert p_wkb_apply(mode, sc, phi,
                           variant=PWkbVariant.LEADING_ORDER).norm() == 0.0

    def test_projection_contracts(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(8.0)
        phi = bump((1.0, 2.0), np.array([1.0, 0.5j]), 1.0)
        km = k_m_apply(mode, sc, phi)
        p = fermionic_projector_apply(mode, sc, phi)
        assert p.norm() <= km.norm() + 1e-12

    def test_mixed_pairing_vanishes(self):
        # the two spectral halves of the indefinite pairing never mix:
        # <P_+ phi | S P_- psi> = 0
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(6.0)
        sig = signature_operator(mode, sc)
        phi = bump((0.9, 1.8), np.array([1.0, 0.0]), 1.0)
        psi = bump((1.4, 2.4), np.array([0.3, 1.0]), 1.0)
        p_plus = positive_projection(sig).matrix @ k_m_apply(mode, sc, phi).value
        p_minus = -(negative_projection(sig).matrix
                    @ k_m_apply(mode, sc, psi).value)
        pairing = p_plus.conj() @ (sig.s.matrix @ p_minus)
        assert abs(pairing) < 1e-10 * max(1.0, sig.norm())

    def test_full_wkb_equals_exact_on_constant_scale(self):
        mode = research_mode(1.5)
        sc = constant_scale(2.5)
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 1.0)
        tol = 1e-10
        a = fermionic_projector_apply(mode, sc, phi, tol=tol)
        b = p_wkb_apply(mode, sc, phi, variant=PWkbVariant.FULL, tol=tol)
        assert np.linalg.norm(a.value - b.value) < 10 * tol

    def test_leading_order_multiplicative_error_on_adapted_probe(self):
        # a negative-frequency-adapted probe keeps the full image at its
        # generic size, so the full/leading gap tracks the spectral-split
        # error factor sqrt(lam^2 + (m r)^2) / (m r)^2
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        rel = {}
        for r_max in (10.0, 30.0):
            sc = dust_scale(r_max)
            v0 = diagonalizer(mode, sc.value(mode.tau0))

            def adapted(t):
                v = diagonalizer(mode, sc.value(t))
                psi = accumulated_phase(mode, sc, mode.tau0, t)
                return SIGMA3 @ (v.conj().T
                                 @ np.array([0.0, np.exp(1j * psi)]))

            phi = complex_bump((1.0, 2.0), adapted)
            full = p_wkb_apply(mode, sc, phi, variant=PWkbVariant.FULL,
                               tol=1e-10)
            lead = p_wkb_apply(mode, sc, phi,
                               variant=PWkbVariant.LEADING_ORDER, tol=1e-10)
            rel[r_max] = (np.linalg.norm(full.value - lead.value)
                          / full.norm())
        factor = lambda r: np.hypot(mode.lam, r) / r ** 2
        c_fit = rel[10.0] / factor(10.0)
        assert rel[30.0] <= 1.05 * c_fit * factor(30.0)


class TestModeScaleCompatibility:
    """tau0 outside the scale's domain must raise, never extrapolate.

    A piecewise scale's domain is the closed [0, tau_end]; a smooth one's is
    the open (0, tau_end), where R vanishes at both ends.
    """

    @pytest.mark.parametrize("mode, sc", [
        (Mode(lam=1.5, mass=1.0, tau0=2.0),
         PiecewiseConstantScale(breakpoints=(0.0, 1.0), values=(2.0,))),
        (Mode(lam=1.5, mass=1.0, tau0=0.0), dust_scale(10.0)),
    ], ids=["piecewise_beyond_end", "smooth_at_zero"])
    @pytest.mark.parametrize("call", [
        lambda m, sc, phi: signature_operator(m, sc),
        lambda m, sc, phi: signature_operator_wkb(m, sc),
        lambda m, sc, phi: wkb_scalar_integrals(m, sc),
        lambda m, sc, phi: wkb_signature_leading_term(m, sc),
        lambda m, sc, phi: k_wkb_apply(m, sc, phi),
        lambda m, sc, phi: p_wkb_apply(m, sc, phi,
                                       variant=PWkbVariant.LEADING_ORDER),
    ], ids=["signature_operator", "signature_operator_wkb",
            "wkb_scalar_integrals", "wkb_signature_leading_term",
            "k_wkb_apply", "p_wkb_apply_leading"])
    def test_tau0_outside_scale_domain_raises(self, call, mode, sc):
        phi = bump((0.2, 0.8), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            call(mode, sc, phi)


LEVIN_LAMBDAS = [1.5, -1.5, 2.5, -2.5, 0.0, 0.5]


def levin_mode(lam, tau0=TAU0):
    return Mode(lam=lam, mass=1.0, tau0=tau0, physical=is_physical_eigenvalue(lam))


@functools.lru_cache(maxsize=None)
def stepper_scalar_integrals(abs_lam, r_max):
    # the scalar integrals depend on lam only through f = hypot(lam, m R)
    return wkb_scalar_integrals(levin_mode(abs_lam), dust_scale(r_max))


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def phase_transport_images(mode, sc, phi):
    """(k, leading-order P) images with the WKB phase carried by the stepper.

    V0 k = support integral of (e^{i psi} w[0], e^{-i psi} w[1]), so the
    leading-order image, the decaying branch alone, is
    -V0^dagger[:, 1] (V0 k)[1].
    """
    k_rk = _k_apply(mode, sc, phi, 1e-12, lambda: _wkb(mode, sc),
                    Provenance.WKB).value
    v0 = diagonalizer(mode, sc.value(mode.tau0))
    return k_rk, -v0.conj().T[:, 1] * (v0 @ k_rk)[1]


def segments_case(lam):
    mode = Mode(lam=lam, mass=1.0, tau0=0.0)
    pairs = [(2.0, 0.5), (0.7, 0.6), (4.1, 1.0), (1.2, 0.5)]
    return mode, make_scenario(mode, pairs), (0.36, 1.82)


FIVE_STEPS = PiecewiseConstantScale(breakpoints=(0.0, 0.7, 1.1, 1.6, 2.4, 3.0),
                                    values=(2.0, 0.8, 3.5, 1.3, 2.6))

# (mode, piecewise scale, probe support); every support straddles at least
# two breakpoints
PIECEWISE_CASES = {
    "segments_lam+5/2": lambda: segments_case(2.5),
    "segments_lam-5/2": lambda: segments_case(-2.5),
    "twelve_perturbed": lambda: (
        Mode(lam=1.5, mass=1.0, tau0=0.0),
        perturb_scenario(build_twelve_segment(), 0, 0.01), (1.0, 2.0)),
    "tau0_inside": lambda: (Mode(lam=-1.5, mass=1.0, tau0=1.3), FIVE_STEPS, (0.9, 2.0)),
    "tau0_below": lambda: (Mode(lam=-1.5, mass=1.0, tau0=0.3), FIVE_STEPS, (0.9, 2.0)),
    "tau0_above": lambda: (Mode(lam=-1.5, mass=1.0, tau0=2.7), FIVE_STEPS, (0.9, 2.0)),
}


class TestLevinRoute:
    """Levin quadrature against the phase (both scale kinds) versus the stepper.

    The stepper's phase transport, resolving every oscillation, is the
    oracle; research modes lam in {0, 0.5} have the lowest panel
    frequencies, where Levin collocation is least well conditioned.
    """

    @pytest.mark.parametrize("r_max", [10.0, 300.0])
    @pytest.mark.parametrize("lam", LEVIN_LAMBDAS)
    def test_signature_matches_scalar_integral_reconstruction(self, lam, r_max):
        mode = levin_mode(lam)
        sc = dust_scale(r_max)
        sw = signature_operator_wkb(mode, sc).s.matrix
        ints = stepper_scalar_integrals(abs(lam), r_max)
        # Y = V sigma3 V^T has Y00 = m R / f and Y01 = |lam| / f
        osc = abs(lam) * (ints.cos_term - 1j * ints.sin_term)
        v0 = diagonalizer(mode, sc.value(TAU0))
        rebuilt = v0.conj().T @ np.array([[ints.mass_term, osc],
                                          [np.conj(osc), -ints.mass_term]]) @ v0
        assert rel_diff(sw, rebuilt) < 1e-9

    @pytest.mark.parametrize("r_max", [10.0, 300.0])
    @pytest.mark.parametrize("lam", LEVIN_LAMBDAS)
    def test_k_and_leading_projector_match_phase_transport(self, lam, r_max):
        mode = levin_mode(lam)
        sc = dust_scale(r_max)
        phi = bump((1.0, 2.0), np.array([0.6, 0.8j]))
        k_rk, p_rk = phase_transport_images(mode, sc, phi)
        assert rel_diff(k_wkb_apply(mode, sc, phi).value, k_rk) < 1e-9
        p = p_wkb_apply(mode, sc, phi, variant=PWkbVariant.LEADING_ORDER)
        assert rel_diff(p.value, p_rk) < 1e-9

    @pytest.mark.parametrize("case", list(PIECEWISE_CASES))
    def test_piecewise_k_and_leading_projector_match_phase_transport(self, case):
        # the stepper steps across the jumps of R; at 1e-12 it still lands
        # within 2e-10 of the Levin panels cut at the breakpoints
        mode, sc, support = PIECEWISE_CASES[case]()
        phi = bump(support, np.array([0.6, 0.8j]))
        k_rk, p_rk = phase_transport_images(mode, sc, phi)
        assert rel_diff(k_wkb_apply(mode, sc, phi).value, k_rk) < 1e-9
        assert rel_diff(p_wkb_leading_apply(mode, sc, phi).value, p_rk) < 1e-9

    @pytest.mark.parametrize("tau0", [0.0, 1.3])
    def test_piecewise_leg_matches_closed_form(self, tau0):
        # F = 1, omega = 2 across a jump of R: psi is linear on each piece,
        # so its integral is (e^{2 i psi(b)} - e^{2 i psi(a)}) / (2 i f)
        mode = Mode(lam=1.5, mass=1.0, tau0=tau0)
        sc = PiecewiseConstantScale(breakpoints=(0.0, 1.1, 2.3), values=(2.0, 0.6))
        want = 0.0
        for a, b, r in [(0.5, 1.1, 2.0), (1.1, 1.7, 0.6)]:
            psi_a, psi_b = (accumulated_phase(mode, sc, tau0, t) for t in (a, b))
            want += (np.exp(2j * psi_b) - np.exp(2j * psi_a)) / (2j * frequency(mode, r))
        (got,) = levin_integral(mode, sc, lambda t, r: (1.0,), (2.0,), 0.5, 1.7,
                                1e-12)
        assert abs(got - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("tau0", [0.4, 2.8])
    def test_k_with_anchor_outside_support(self, tau0):
        mode = levin_mode(2.5, tau0)
        sc = dust_scale(10.0)
        phi = bump((1.2, 1.9), np.array([1.0, 0.0]))
        k_rk = _k_apply(mode, sc, phi, 1e-12, lambda: _wkb(mode, sc),
                        Provenance.WKB).value
        assert rel_diff(k_wkb_apply(mode, sc, phi).value, k_rk) < 1e-9

    def test_signature_cost_is_flat_in_m_rmax(self, monkeypatch):
        # integrand evaluations (one frame per node), not timings
        calls = []
        frame = projector.diagonalizer
        monkeypatch.setattr(projector, "diagonalizer",
                            lambda mode, r: calls.append(r) or frame(mode, r))
        counts = {}
        for r_max in (10.0, 300.0):
            calls.clear()
            signature_operator_wkb(levin_mode(1.5), dust_scale(r_max))
            counts[r_max] = len(calls)
        assert counts[300.0] <= 1.5 * counts[10.0]

    def test_exhausted_panel_budget_raises(self, monkeypatch):
        # [0.1, 3.0] starts as 12 panels, more than the budget allows
        monkeypatch.setattr(levin, "MAX_PANELS", 5)
        with pytest.raises(ConvergenceFailure, match="5 panels"):
            levin_integral(levin_mode(1.5), dust_scale(10.0), lambda t, r: (r,),
                           (2.0,), 0.1, 3.0, 1e-10)

    def test_unresolvable_integrand_raises(self):
        # a jump never meets the per-unit-tau criterion: refinement must
        # stop with an error, not hand back a truncated sum
        mode = levin_mode(1.5)
        sc = dust_scale(10.0)
        with pytest.raises(ConvergenceFailure, match="underflow"):
            levin_integral(mode, sc, lambda t, r: (float(t > 1.234),), (2.0,),
                           0.1, 3.0, 1e-10)


class TestPiecewiseExactRoute:
    """Exact quantities on piecewise scales: Levin segment sums, closed-form frames.

    R is constant on every segment, so the exact propagator there is the
    WKB one times a constant W; no route needs the stepper.
    """

    @pytest.fixture
    def stepper_calls(self, monkeypatch):
        from diracsea import stepper

        calls = []
        integrate = stepper.integrate
        monkeypatch.setattr(stepper, "integrate",
                            lambda *a, **k: calls.append(a[1:3]) or integrate(*a, **k))
        return calls

    @pytest.mark.parametrize("case", ["tau0_below", "tau0_inside", "tau0_above"])
    def test_no_stepper_call(self, case, stepper_calls):
        from diracsea import bloch, cfs

        mode, sc, support = PIECEWISE_CASES[case]()
        phi = bump(support, np.array([0.6, 0.8j]))
        family = cfs.orthonormalize(cfs.negative_subspace_family((mode,), sc))
        taus = np.linspace(0.1, 2.9, 7)
        k_m_apply(mode, sc, phi)
        fermionic_projector_apply(mode, sc, phi)
        cfs.kernel_apply(family, 1.7, phi, 0)
        cfs.correlation_trace_lifetime_integral(family)
        bloch.propagate_bloch(mode, sc, taus)
        bloch.v_components(mode, sc, taus)
        bloch.scenario_v_rows_with_cumulative(mode, sc, taus)
        assert stepper_calls == []
        # the counter sees the stepper where it does run
        k_m_apply(mode, dust_scale(2.0), phi)
        assert stepper_calls

    @pytest.mark.parametrize("tau0", [0.3, 1.3, 2.7])
    @pytest.mark.parametrize("lam", [1.5, -2.5, 0.0])
    def test_k_matches_segment_quadrature(self, lam, tau0):
        # U^dagger sigma3 phi R / 2 pi with U from the closed-form evolve,
        # integrated segment by segment
        from scipy.integrate import quad_vec

        mode = Mode(lam=lam, mass=1.0, tau0=tau0, physical=is_physical_eigenvalue(lam))
        phi = bump((0.9, 2.0), np.array([0.6, 0.8j]))

        def integrand(t):
            u = evolve(mode, FIVE_STEPS, tau0, t).u.matrix
            v = u.conj().T @ (SIGMA3 @ phi(t)) * FIVE_STEPS.value(t) / (2 * np.pi)
            return np.concatenate([v.real, v.imag])

        want = sum(quad_vec(integrand, a, b, epsabs=1e-14, epsrel=1e-13)[0]
                   for a, b, _ in FIVE_STEPS.pieces(*phi.support))
        got = k_m_apply(mode, FIVE_STEPS, phi).value
        assert rel_diff(got, want[:2] + 1j * want[2:]) < 1e-10
