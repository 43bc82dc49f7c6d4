import dataclasses
import functools
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from diracsea import cfs, levin, model, projector, stepper
from diracsea.bloch import (build_six_segment, build_twelve_segment, make_scenario,
                            perturb_scenario)
from diracsea.errors import (ConvergenceFailure, DegenerateSignature, DomainError,
                             InvalidParameter)
from diracsea.evolution import (
    accumulated_phase,
    diagonalizer,
    evolve,
    frequency,
    interval_integral,
    phase_transport,
    segment_propagator,
    wkb_deviation,
    wkb_evolve,
    wkb_propagator_raw,
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
    smooth_table_scale,
    spectral_norm,
)
from diracsea.levin import levin_integral
from levin_oracle import levin_integral_depth_first
from diracsea.projector import (
    _finish_signature,
    _sigma3_integral,
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
        w = (segment_propagator(mode.lam, mode.mass, 0.7, tau0 - 0.9)
             @ segment_propagator(mode.lam, mode.mass, 2.2, 0.9)
             if tau0 else np.eye(2))
        acc = np.zeros((2, 2), dtype=complex)
        u_start = np.eye(2, dtype=complex)
        widths = np.diff(sc.breakpoints)
        for r, dt in zip(sc.values, widths):
            ts = np.linspace(0.0, dt, 3001)
            vals = np.empty((len(ts), 2, 2), dtype=complex)
            for i, t in enumerate(ts):
                u = segment_propagator(mode.lam, mode.mass, r, t) @ u_start
                vals[i] = u.conj().T @ SIGMA3 @ u * r
            acc += simpson(vals, x=ts, axis=0)
            u_start = segment_propagator(mode.lam, mode.mass, r, dt) @ u_start
        assert spectral_norm(sig.s.matrix - w @ acc @ w.conj().T) < 1e-8

    @pytest.mark.parametrize("n", [8, 12])
    def test_table_scale_error_estimate_is_a_bound(self, n):
        # the spline through g(0) = 0 dips below 0 next to tau = 0: its tails
        # are negative there, and the window reads them by size
        taus = np.linspace(0.0, np.pi, n)
        sc = smooth_table_scale(taus, np.sin(taus / 2) ** 2, 10.0)
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sig = signature_operator(mode, sc)
        ref = signature_operator(mode, sc, tol=1e-14, ode_tol=1e-13)
        assert sig.quad_error_estimate >= spectral_norm(sig.s.matrix - ref.s.matrix)
        assert sig.quad_error_estimate >= 0.0

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

    # from tau0 = 1e-4, below the lower cutoff, the scalar integrals' phase
    # is first carried to the cutoff by the stepper
    @pytest.mark.parametrize("r_max,tau0", [(10.0, TAU0), (10.0, 1e-4)],
                             ids=["10.0", "10.0-tau0_1e-4"])
    def test_eigenvalues_match_closed_form(self, r_max, tau0):
        mode = Mode(lam=1.5, mass=1.0, tau0=tau0)
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

    def test_scalar_integral_sweeps_take_pinned_steps(self, caplog):
        # e^{2 i psi} turns at 2f, so a step advances psi by at most
        # 0.05 rad: the legs from tau0 out to both cutoffs
        caplog.set_level(logging.DEBUG, logger="diracsea")
        wkb_scalar_integrals(Mode(1.5, 1.0, TAU0), dust_scale(10.0))
        sweeps = [re.fullmatch(r"cointegrate: 1 stops, width 3, (\d+) accepted, "
                               r"(\d+) rejected, \d+ rhs evaluations", r.getMessage())
                  for r in caplog.records if r.name == "diracsea.evolution"]
        assert [tuple(map(int, m.groups())) for m in sweeps] == [(278, 0), (107, 0)]

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


@pytest.mark.parametrize("run,sweeps", [
    (lambda: k_m_apply(Mode(1.5, 1.0, TAU0), dust_scale(10.0),
                       bump((0.3, 0.9), [1.0, 0.5])),
     [(0, 74, 0, 445), (2, 61, 7, 409)]),
    (lambda: signature_operator(Mode(1.5, 1.0, 1e-4), dust_scale(10.0)),
     [(0, 1, 0, 7), (4, 489, 0, 2935)]),
], ids=["k_m_apply_probe_above_tau0", "signature_tau0_below_cutoff"])
def test_carry_then_leg_take_pinned_steps(caplog, run, sweeps):
    # an interval that excludes tau0: cointegrate first carries the propagator
    # to its near end (width 0, no integral), then integrates across it
    caplog.set_level(logging.DEBUG, logger="diracsea")
    run()
    found = [re.fullmatch(r"cointegrate: 1 stops, width (\d+), (\d+) accepted, "
                          r"(\d+) rejected, (\d+) rhs evaluations", r.getMessage())
             for r in caplog.records if r.name == "diracsea.evolution"]
    assert [tuple(map(int, m.groups())) for m in found] == sweeps


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
        assert p_wkb_apply(mode, sc, phi).norm() == 0.0
        assert p_wkb_leading_apply(mode, sc, phi).norm() == 0.0

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
        b = p_wkb_apply(mode, sc, phi, tol=tol)
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
            full = p_wkb_apply(mode, sc, phi, tol=1e-10)
            lead = p_wkb_leading_apply(mode, sc, phi, tol=1e-10)
            rel[r_max] = (np.linalg.norm(full.value - lead.value)
                          / full.norm())
        factor = lambda r: np.hypot(mode.lam, r) / r ** 2
        c_fit = rel[10.0] / factor(10.0)
        assert rel[30.0] <= 1.05 * c_fit * factor(30.0)


def stepper_spy(monkeypatch):
    """(t0, t1, accepted steps) of every stepper call, in order."""
    calls, integrate = [], stepper.integrate

    def spy(rhs, t0, t1, y0, rtol, atol, max_step=None, post_accept=None, stats=None):
        before = stats.accepted
        y = integrate(rhs, t0, t1, y0, rtol, atol, max_step, post_accept, stats)
        calls.append((t0, t1, stats.accepted - before))
        return y

    monkeypatch.setattr(stepper, "integrate", spy)
    return calls


#: (tau0, probe support from the window's lower end lo, the stepper's legs
#: from window (lo, hi)): each leg stops at every interval end on its side
ONE_SWEEP_CASES = {
    "probe_holds_tau0": (TAU0, lambda lo: (1.0, 2.0),
                         lambda lo, hi: [(TAU0, 2.0), (2.0, hi), (TAU0, 1.0), (1.0, lo)]),
    "probe_below_tau0": (TAU0, lambda lo: (0.3, 0.9),
                         lambda lo, hi: [(TAU0, hi), (TAU0, 0.9), (0.9, 0.3), (0.3, lo)]),
    "probe_above_tau0": (TAU0, lambda lo: (2.2, 3.1),
                         lambda lo, hi: [(TAU0, 2.2), (2.2, 3.1), (3.1, hi), (TAU0, lo)]),
    "probe_past_window_lo": (TAU0, lambda lo: (lo / 2, 0.5),
                             lambda lo, hi: [(TAU0, hi), (TAU0, 0.5), (0.5, lo),
                                             (lo, lo / 2)]),
    "tau0_below_window": (1e-4, lambda lo: (1.0, 2.0),
                          lambda lo, hi: [(1e-4, lo), (lo, 1.0), (1.0, 2.0), (2.0, hi)]),
}


class TestOneSweepProjector:
    """On smooth scales P(phi) takes one sweep per leg, S's integrand and
    k(phi)'s riding together, against the two-sweep -X_neg(S) k(phi)."""

    @pytest.mark.parametrize("r_max", [10.0, 30.0])
    @pytest.mark.parametrize("case", sorted(ONE_SWEEP_CASES))
    def test_matches_the_two_sweep_route(self, monkeypatch, case, r_max):
        tau0, support, legs = ONE_SWEEP_CASES[case]
        mode, sc = Mode(lam=1.5, mass=1.0, tau0=tau0), dust_scale(r_max)
        lo, hi, _ = sc.window(1e-9)
        phi = bump(support(lo), np.array([1.0, 0.4 - 0.7j]), 1.3)
        want = -(negative_projection(signature_operator(mode, sc)).matrix
                 @ k_m_apply(mode, sc, phi).value)
        called = []
        for name in ("signature_operator", "k_m_apply"):
            monkeypatch.setattr(projector, name,
                                lambda *args, name=name, **kw: called.append(name))
        calls = stepper_spy(monkeypatch)
        got = fermionic_projector_apply(mode, sc, phi).value
        assert called == []
        assert [(t0, t1) for t0, t1, _ in calls] == legs(lo, hi)
        assert rel_diff(got, want) < 5e-10

    def test_zero_probe_maps_to_exactly_zero(self):
        mode, sc = Mode(lam=-2.5, mass=1.0, tau0=TAU0), dust_scale(30.0)
        phi = bump((0.3, 2.0), np.array([1.0, 0.0]), 0.0)
        assert np.all(fermionic_projector_apply(mode, sc, phi).value == 0.0)

    @pytest.mark.parametrize("r_max, support", [(2.0, (1.0, 1.1)), (10.0, (1.0, 1.05))])
    def test_narrow_probe_takes_no_more_steps_than_two_sweeps(self, monkeypatch,
                                                              r_max, support):
        # the probe's step cap holds between its ends only, so a narrow
        # probe does not cap the lifetime sweep
        mode, sc = Mode(lam=1.5, mass=1.0, tau0=TAU0), dust_scale(r_max)
        phi = bump(support, np.array([1.0, 0.0]))
        calls = stepper_spy(monkeypatch)
        signature_operator(mode, sc)
        k_m_apply(mode, sc, phi)
        two = sum(n for *_, n in calls)
        calls.clear()
        fermionic_projector_apply(mode, sc, phi)
        assert sum(n for *_, n in calls) <= two

    @pytest.mark.parametrize("tau0", [0.5, TAU0, 2.5])
    def test_intervals_are_differences_of_one_running_integral(self, tau0):
        # tau0 below, inside and above the span; an empty interval is zero,
        # alone or among others, and so is its Levin leg
        mode, sc = Mode(lam=1.5, mass=1.0, tau0=tau0), dust_scale(5.0)
        ints = interval_integral(phase_transport(mode, sc), lambda t, r, x: (r,), 1,
                                 [(1.2, 1.2), (1.0, 2.0)], 1e-10)
        exact = 2.5 * (1.0 - (np.sin(2.0) - np.sin(1.0)))
        assert ints[0, 0] == 0.0 and abs(ints[1, 0] - exact) < 1e-9
        (alone,) = interval_integral(phase_transport(mode, sc), lambda t, r, x: (r,), 1,
                                     [(1.2, 1.2)], 1e-10)
        assert alone[0] == 0.0
        assert levin_integral(mode, sc, lambda ts, rs: rs[:, None], [0.0],
                              1.2, 1.2, 1e-10)[0] == 0.0

    def test_integrand_is_s_and_k_with_k_zero_off_the_support(self, monkeypatch):
        mode, sc = Mode(lam=1.5, mass=1.0, tau0=TAU0), dust_scale(5.0)
        seen = []
        phi = bump((1.0, 2.0), np.array([1.0, 0.4 - 0.7j]), 2.0)
        probe = dataclasses.replace(phi, amplitude=lambda t: seen.append(t) or phi(t))

        def run():
            with pytest.raises(DegenerateSignature):  # the captured S is zero
                fermionic_projector_apply(mode, sc, probe)

        integrand = captured_integrand(monkeypatch, projector, run)
        for u, t in zip(random_unitaries(16, 4), np.linspace(0.2, 2.8, 16)):
            got = np.array(integrand(t, 0.8, u.ravel()))
            assert np.abs(got[:4].reshape(2, 2) - (u.conj().T @ SIGMA3 @ u) * 0.8
                          ).max() <= 1e-15
            k = u.conj().T @ (SIGMA3 @ phi(t)) * 0.8 / (2 * np.pi)
            assert np.abs(got[4:] - k).max() <= 1e-15
        assert seen and all(1.0 <= t <= 2.0 for t in seen)


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
        lambda m, sc, phi: p_wkb_leading_apply(m, sc, phi),
    ], ids=["signature_operator", "signature_operator_wkb",
            "wkb_scalar_integrals", "wkb_signature_leading_term",
            "k_wkb_apply", "p_wkb_leading_apply"])
    def test_tau0_outside_scale_domain_raises(self, call, mode, sc):
        phi = bump((0.2, 0.8), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            call(mode, sc, phi)


class TestInputsCheckedFirst:
    """Tolerances are checked on both scale kinds, before the piecewise
    closed forms, and every projector input before any signature."""

    SCALES = {"six_segment": (build_six_segment().mode, build_six_segment()),
              "dust": (Mode(lam=1.5, mass=1.0, tau0=TAU0), dust_scale(5.0))}

    @pytest.mark.parametrize("kind", sorted(SCALES))
    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    @pytest.mark.parametrize("call", [
        lambda m, sc, bad: signature_operator(m, sc, tol=bad),
        lambda m, sc, bad: signature_operator_wkb(m, sc, tol=bad),
        lambda m, sc, bad: wkb_eigenvalues_closed_form(m, sc, tol=bad),
        lambda m, sc, bad: wkb_scalar_integrals(m, sc, tol=bad),
        lambda m, sc, bad: wkb_scalar_integrals(m, sc, ode_tol=bad),
    ], ids=["signature_operator", "signature_operator_wkb",
            "wkb_eigenvalues_closed_form", "wkb_scalar_integrals_tol",
            "wkb_scalar_integrals_ode_tol"])
    def test_tolerances_checked_on_both_scale_kinds(self, call, bad, kind):
        mode, sc = self.SCALES[kind]
        with pytest.raises(InvalidParameter, match="tolerance"):
            call(mode, sc, bad)

    @pytest.mark.parametrize("bad", ["support", "tau0", "tol", "gap_tol"])
    @pytest.mark.parametrize("apply", [fermionic_projector_apply, p_wkb_apply])
    def test_projector_inputs_checked_before_the_signature(self, monkeypatch, apply, bad):
        # a signature on dust_scale(100) takes about 0.2 s; no bad input may
        # cost one, nor the exact projector's one sweep
        calls = []
        for name in ("signature_operator", "signature_operator_wkb", "interval_integral"):
            monkeypatch.setattr(projector, name,
                                lambda *args, name=name, **kw: calls.append(name))
        mode, phi, tols = Mode(lam=1.5, mass=1.0, tau0=TAU0), bump((1.0, 2.0), [1.0, 0.0]), {}
        if bad == "support":
            phi = bump((1.0, np.pi), [1.0, 0.0])
        elif bad == "tau0":
            mode = Mode(lam=1.5, mass=1.0, tau0=np.pi)
        else:
            tols = {bad: -1.0}
        with pytest.raises(DomainError if bad in ("support", "tau0") else InvalidParameter):
            apply(mode, dust_scale(100.0), phi, **tols)
        assert calls == []


LEVIN_LAMBDAS = [1.5, -1.5, 2.5, -2.5, 0.0, 0.5]


def levin_mode(lam, tau0=TAU0):
    return Mode(lam=lam, mass=1.0, tau0=tau0, physical=is_physical_eigenvalue(lam))


@functools.lru_cache(maxsize=None)
def stepper_scalar_integrals(abs_lam, r_max):
    # the scalar integrals depend on lam only through f = hypot(lam, m R)
    return wkb_scalar_integrals(levin_mode(abs_lam), dust_scale(r_max))


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def stepper_wkb_image(mode, sc, phi):
    """k_wkb(phi) with the WKB phase carried by the stepper.

    The support integral of U_wkb^dagger sigma3 phi R / 2 pi, with
    U_wkb = V(tau)^-1 D(psi) V(tau0), in steps of at most a sixteenth of
    the support.
    """
    v0 = diagonalizer(mode, sc.value(mode.tau0))

    def integrand(t, r, x):
        u = wkb_propagator_raw(diagonalizer(mode, r), v0, x[0].real)
        return u.conj().T @ SIGMA3 @ phi(t) * (r / (2 * np.pi))

    lo, hi = phi.support
    (image,) = interval_integral(phase_transport(mode, sc), integrand, 2, [(lo, hi)],
                                 1e-12, [(hi - lo) / 16.0])
    return image


def phase_transport_images(mode, sc, phi):
    """(k, leading-order P) images with the WKB phase carried by the stepper.

    V0 k = support integral of (e^{i psi} w[0], e^{-i psi} w[1]), so the
    leading-order image, the decaying branch alone, is
    -V0^dagger[:, 1] (V0 k)[1].
    """
    k_rk = stepper_wkb_image(mode, sc, phi)
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


@pytest.mark.parametrize("mode,sc", [
    (Mode(lam=-1.5, mass=1.0, tau0=0.0), FIVE_STEPS),
    (Mode(lam=-1.5, mass=1.0, tau0=1.3), FIVE_STEPS),
    (Mode(lam=1.5, mass=1.0, tau0=0.0), perturb_scenario(build_twelve_segment(), 0, 0.01)),
], ids=["five_steps_tau0_0", "five_steps_tau0_1.3", "twelve_perturbed"])
def test_piecewise_scalar_integrals_match_segment_loop(mode, sc):
    # the closed forms segment by segment, psi at each start walked from tau0
    want = np.zeros(3)
    for a, b, r in sc.pieces(0.0, sc.tau_end):
        f, dt = frequency(mode, r), b - a
        psi0 = accumulated_phase(mode, sc, mode.tau0, a)
        want += [mode.mass * r * r / f * dt,
                 r / f * (np.sin(2 * (psi0 + f * dt)) - np.sin(2 * psi0)) / (2 * f),
                 r / f * (np.cos(2 * (psi0 + f * dt)) - np.cos(2 * psi0)) / (2 * f)]
    got = wkb_scalar_integrals(mode, sc)
    assert np.all(np.abs(np.subtract([got.mass_term, got.cos_term, got.sin_term], want))
                  <= 1e-13 * np.abs(want))


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
        p = p_wkb_leading_apply(mode, sc, phi)
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
        # so its integral is (e^{2 i psi(b)} - e^{2 i psi(a)}) / (2 i f); one
        # row per piece, and their sum
        mode = Mode(lam=1.5, mass=1.0, tau0=tau0)
        sc = PiecewiseConstantScale(breakpoints=(0.0, 1.1, 2.3), values=(2.0, 0.6))
        want = []
        for a, b, r in [(0.5, 1.1, 2.0), (1.1, 1.7, 0.6)]:
            psi_a, psi_b = (accumulated_phase(mode, sc, tau0, t) for t in (a, b))
            want.append((np.exp(2j * psi_b) - np.exp(2j * psi_a)) / (2j * frequency(mode, r)))
        rows = levin_integral(mode, sc, lambda ts, rs: np.ones((ts.size, 1)),
                              (2.0,), 0.5, 1.7, 1e-12)
        assert rows.shape == (2, 1)
        assert np.abs(rows[:, 0] - want).max() < 1e-12 * np.abs(want).max()
        assert abs(rows.sum() - sum(want)) < 1e-12 * abs(sum(want))

    @pytest.mark.parametrize("tau0", [0.4, 2.8])
    def test_k_with_anchor_outside_support(self, tau0):
        mode = levin_mode(2.5, tau0)
        sc = dust_scale(10.0)
        phi = bump((1.2, 1.9), np.array([1.0, 0.0]))
        k_rk = stepper_wkb_image(mode, sc, phi)
        assert rel_diff(k_wkb_apply(mode, sc, phi).value, k_rk) < 1e-9

    def test_signature_cost_is_flat_in_m_rmax(self, monkeypatch):
        # integrand evaluations (one frame per node), not timings
        calls = []
        frame = projector.diagonalizer
        monkeypatch.setattr(projector, "diagonalizer",
                            lambda mode, r: calls.extend(np.ravel(r)) or frame(mode, r))
        counts = {}
        for r_max in (10.0, 300.0):
            calls.clear()
            signature_operator_wkb(levin_mode(1.5), dust_scale(r_max))
            counts[r_max] = len(calls)
        assert counts[300.0] <= 1.5 * counts[10.0]

    def test_debug_line_per_call(self, caplog):
        # tau0 inside [lo, hi]: two legs; every panel accepted was tested
        caplog.set_level(logging.DEBUG, logger="diracsea")
        calls = []

        def integrand(ts, rs):
            calls.append(ts.size)
            return rs[:, None]

        levin_integral(levin_mode(1.5), dust_scale(10.0), integrand, (2.0,),
                       0.5, 2.5, 1e-10)
        (line,) = levin_lines(caplog)
        match = re.fullmatch(r"levin_integral: 2 intervals, (\d+) panels tested, "
                             r"(\d+) accepted, absolute error bound (\S+)", line)
        tested, accepted = map(int, match.groups()[:2])
        assert 0 < accepted <= tested and float(match.group(3)) >= 0.0
        # each call takes whole panels, and the calls evaluate each tested
        # panel exactly once
        assert all(size % levin.NODES == 0 for size in calls)
        assert sum(calls) == tested * levin.NODES
        # one call per round: every panel here passes in the first round,
        # so the two legs make one call between them
        assert accepted == tested and len(calls) == 1

    def test_exhausted_panel_budget_raises(self, monkeypatch):
        # [0.1, 3.0] starts as 12 panels, more than the budget allows
        monkeypatch.setattr(model, "MAX_PANELS", 5)
        with pytest.raises(ConvergenceFailure, match="5 panels"):
            levin_integral(levin_mode(1.5), dust_scale(10.0),
                           lambda ts, rs: rs[:, None], (2.0,), 0.1, 3.0, 1e-10)

    def test_unresolvable_integrand_raises(self):
        # a jump never meets the per-unit-tau criterion: refinement must
        # stop with an error, not hand back a truncated sum
        mode = levin_mode(1.5)
        sc = dust_scale(10.0)
        with pytest.raises(ConvergenceFailure, match="underflow"):
            levin_integral(mode, sc, lambda ts, rs: (ts > 1.234)[:, None] * 1.0,
                           (2.0,), 0.1, 3.0, 1e-10)


class TestWalkRule:
    """The panel rule, (tol S + floor) per unit tau: S the largest integrand
    value of the whole integral, the floor the rounding R carries from g."""

    def test_small_image_keeps_its_relative_accuracy(self):
        # norm 4.6e-3: a rule absolute below size 1 left it 2.7e-9 off
        sc = perturb_scenario(build_six_segment(), 0, 0.047626)
        phi = bump((0.970608, 2.08056), (1, 0.5j))
        want = p_wkb_leading_apply(sc.mode, sc, phi, tol=1e-13).value
        assert rel_diff(p_wkb_leading_apply(sc.mode, sc, phi).value, want) < 1e-11

    @pytest.mark.parametrize("lam", [0.5, -1.5, 7.5])
    def test_signature_converges_under_rounding_noise(self, lam):
        # near tau = 0.02 dust's 1 - cos tau carries about 4e-14 relative
        # noise, far above 2e-14 of the integrand there
        mode, sc = levin_mode(lam), dust_scale(1e4)
        got = signature_operator_wkb(mode, sc, ode_tol=2e-14).s.matrix
        want = signature_operator_wkb(mode, sc, ode_tol=1e-12).s.matrix
        assert rel_diff(got, want) < 1e-12

    @pytest.mark.parametrize("r_max,support", [(300.0, (3.0, 3.14)), (10.0, (0.005, 0.05)),
                                               (1e4, (0.005, 0.05))])
    @pytest.mark.parametrize("lam", [-1.5, 7.5])
    def test_probe_image_converges_at_2e_14(self, r_max, support, lam):
        # near the crunch a rule relative to each panel met rounding noise; near
        # the bang R is small, and without the floor of g's rounding no panel
        # there passes; the image is about 2e-6 at r_max 10, which a rule
        # absolute below size 1 resolved to 4e-10 only
        mode, sc = levin_mode(lam), dust_scale(r_max)
        phi = bump(support, np.array([1.0, 0.0]))
        got = k_wkb_apply(mode, sc, phi, tol=2e-14).value
        assert rel_diff(got, k_wkb_apply(mode, sc, phi, tol=1e-12).value) < 1e-11


def levin_lines(caplog, start=0):
    """The DEBUG lines of the ``levin_integral`` walks logged since ``start``."""
    return [r.getMessage() for r in caplog.records[start:]
            if r.name == "diracsea.model" and r.getMessage().startswith("levin_integral:")]


def levin_against_oracle(monkeypatch, caplog):
    """Send projector's Levin calls through the round walk and the depth-first
    oracle both; each result must be bit-identical, with the same DEBUG
    counts.  Returns the list of the calls' omegas."""
    caplog.set_level(logging.DEBUG, logger="diracsea.model")
    seen = []

    def both(mode, scale, integrand, omegas, lo, hi, tol):
        start = len(caplog.records)
        got = levin_integral(mode, scale, integrand, omegas, lo, hi, tol)
        (line,) = levin_lines(caplog, start)
        want, tested, accepted, bound = levin_integral_depth_first(
            mode, scale, integrand, omegas, lo, hi, tol)
        assert np.array_equal(got, want)
        assert got.shape == (len(scale.pieces(lo, hi)), len(omegas))
        assert line.endswith(f" {tested} panels tested, {accepted} accepted, "
                             f"absolute error bound {bound:.3g}")
        seen.append(tuple(omegas))
        return got

    monkeypatch.setattr(projector, "levin_integral", both)
    return seen


PRESETS = {
    "six_segment": (build_six_segment, (1.0, 7.0)),
    "twelve_segment": (build_twelve_segment, (2.0, 15.0)),
    "twelve_perturbed": (lambda: perturb_scenario(build_twelve_segment(), 3, -0.02),
                         (2.0, 15.0)),
}


class TestRoundsMatchDepthFirst:
    """The batched walk, a refinement round at a time, against the depth-first
    walk it replaced (``tests/levin_oracle.py``): the same tree, the same
    panels summed in the same order, so the same bits."""

    @pytest.mark.parametrize("tau0", [TAU0, 0.7])
    @pytest.mark.parametrize("lam", [1.5, -1.5, 2.5, -2.5])
    @pytest.mark.parametrize("r_max", [10.0, 300.0, 3000.0])
    def test_dust(self, monkeypatch, caplog, r_max, lam, tau0):
        seen = levin_against_oracle(monkeypatch, caplog)
        mode, sc = levin_mode(lam, tau0), dust_scale(r_max)
        phi = bump((1.0, 2.0), np.array([0.6, 0.8j]))
        signature_operator_wkb(mode, sc)
        k_wkb_apply(mode, sc, phi)
        p_wkb_leading_apply(mode, sc, phi)
        assert seen == [(0.0, 2.0), (1.0, -1.0), (-1.0,)]

    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_presets(self, monkeypatch, caplog, preset):
        # one walk per image: the WKB ones, the exact one and the lifetime
        # integral, the exact ones with a row per segment
        seen = levin_against_oracle(monkeypatch, caplog)
        build, support = PRESETS[preset]
        sc = build()
        phi = bump(support, np.array([0.6, 0.8j]))
        k_wkb_apply(sc.mode, sc, phi)
        p_wkb_leading_apply(sc.mode, sc, phi)
        k_m_apply(sc.mode, sc, phi)
        _sigma3_integral(sc.mode, sc, 0.0, sc.tau_end, 1e-10, exact=True)
        assert seen == [(1.0, -1.0), (-1.0,), (1.0, -1.0), (0.0, 2.0)]

    def test_refined_leg_takes_one_call_per_round(self, caplog):
        # a narrow bump refines its panels over several rounds; each round
        # is one integrand call, far fewer than the panels tested
        caplog.set_level(logging.DEBUG, logger="diracsea.model")
        calls = []

        def integrand(ts, rs):
            calls.append(ts)
            return (rs * np.exp(-((ts - 1.2) / 0.01) ** 2))[:, None]

        mode, sc = levin_mode(1.5), dust_scale(10.0)
        got = levin_integral(mode, sc, integrand, (2.0,), 0.5, 2.5, 1e-10)
        rounds = len(calls)
        # the narrowest panel evaluated is accepted (a failed one is cut finer)
        finest = min((ts[::levin.NODES] - ts[levin.NODES - 1::levin.NODES]).min()
                     for ts in calls)
        (line,) = levin_lines(caplog)
        want, tested, accepted, bound = levin_integral_depth_first(
            mode, sc, integrand, (2.0,), 0.5, 2.5, 1e-10)
        assert np.array_equal(got, want)
        assert line == (f"levin_integral: 2 intervals, {tested} panels tested, "
                        f"{accepted} accepted, absolute error bound {bound:.3g}")
        assert accepted < tested and 4 * rounds < tested
        # a failed panel is cut by how far it missed: fewer rounds than halving
        # from MAX_PANEL down to the finest accepted width would take
        assert rounds < 1 + np.log2(model.MAX_PANEL / finest)

    def test_singular_panel_is_split(self, monkeypatch, caplog):
        # one panel's two collocation systems are singular to working
        # precision (condition 4.7e16): the panel fails, as a NaN does, and
        # its halves are solved
        mode, sc = levin_mode(7.5), dust_scale(100.0)
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]))
        assert rel_diff(k_wkb_apply(mode, sc, phi).value,
                        stepper_wkb_image(mode, sc, phi)) < 1e-9
        seen = levin_against_oracle(monkeypatch, caplog)
        k_wkb_apply(mode, sc, phi)
        assert seen == [(1.0, -1.0)]


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

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.3, 3.0)),
                    min_size=2, max_size=12),
           st.sampled_from([1.5, -1.5, 2.5, -2.5]), st.data())
    def test_one_walk_is_the_segment_walks(self, segments, lam, data):
        # the one-walk exact image against a Levin walk per segment, each
        # conjugated by its segment's W, as the images were once taken; each
        # per-segment walk has its own S, so both sides run at 1e-13
        widths, values = zip(*segments)
        sc = PiecewiseConstantScale(tuple(np.cumsum((0.0, *widths)).tolist()), values)
        first = data.draw(st.integers(0, len(values) - 1))
        last = first + data.draw(st.integers(0, min(4, len(values) - 1 - first)))
        bps = sc.breakpoints
        lo = bps[first] + data.draw(st.floats(0.02, 0.4)) * widths[first]
        hi = bps[last] + data.draw(st.floats(0.6, 0.98)) * widths[last]
        where = data.draw(st.sampled_from(["zero", "inside", "past"]))
        u = data.draw(st.floats(0.0, 1.0))
        tau0 = {"zero": 0.0, "inside": lo + u * (hi - lo),
                "past": hi + u * (sc.tau_end - hi)}[where]
        mode = Mode(lam=lam, mass=1.0, tau0=tau0)
        phi = bump((lo, hi), np.array([0.6, 0.8j]))
        assert len(sc.pieces(lo, hi)) == last - first + 1
        v0 = diagonalizer(mode, sc.value(tau0))

        def integrand(ts, rs):
            # w = V sigma3 phi R / 2 pi on the nodes
            w = diagonalizer(mode, rs) @ (SIGMA3 @ phi(ts[:, None])[..., None])
            return w[..., 0] * (rs / (2 * np.pi))[:, None]

        want = 0.0
        for a, b, _ in sc.pieces(lo, hi):
            (vals,) = levin_integral(mode, sc, integrand, (1.0, -1.0), a, b, 1e-13)
            c = v0 @ wkb_deviation(mode, sc, 0.5 * (a + b)).matrix
            want = want + c.conj().T @ vals
        assert rel_diff(k_m_apply(mode, sc, phi, tol=1e-13).value, want) < 1e-12

    def test_panel_budget_is_one_per_image(self, monkeypatch, caplog):
        # a budget each segment's own walk of the image's integrand fits in,
        # but not the support's: the one walk raises, once, naming the support
        mode, sc, support = PIECEWISE_CASES["tau0_below"]()
        phi = bump(support, np.array([0.6, 0.8j]))
        caplog.set_level(logging.DEBUG, logger="diracsea.model")

        def tested():
            (line,) = levin_lines(caplog)
            caplog.clear()
            return int(re.search(r"(\d+) panels tested", line).group(1))

        calls = []
        walk = projector.levin_integral
        monkeypatch.setattr(projector, "levin_integral",
                            lambda *args: calls.append(args) or walk(*args))
        k_m_apply(mode, sc, phi)
        whole = tested()
        ((_, _, integrand, omegas, lo, hi, tol),) = calls
        per_segment = []
        for a, b, _ in sc.pieces(lo, hi):
            walk(mode, sc, integrand, omegas, a, b, tol)
            per_segment.append(tested())
        assert (lo, hi) == support and len(per_segment) > 1 and max(per_segment) < whole
        monkeypatch.setattr(model, "MAX_PANELS", whole - 1)
        calls.clear()
        with pytest.raises(ConvergenceFailure, match=re.escape(
                f"{whole - 1} panels before covering [{lo:.6g}, {hi:.6g}]")):
            k_m_apply(mode, sc, phi)
        assert [args[4:6] for args in calls] == [support]

def random_unitaries(n, seed):
    rng = np.random.default_rng(seed)
    w, _, vh = np.linalg.svd(rng.normal(size=(n, 2, 2))
                             + 1j * rng.normal(size=(n, 2, 2)))
    return w @ vh


def captured_integrand(monkeypatch, module, run):
    """The integrand ``run`` hands to ``module.interval_integral``."""
    seen = []

    def capture(transport, integrand, width, intervals, *args, **kwargs):
        seen.append(integrand)
        return np.zeros((len(intervals), width), dtype=complex)

    monkeypatch.setattr(module, "interval_integral", capture)
    run()
    return seen[0]


class TestClosedFormIntegrands:
    """The stepper's integrands against the matrix products they replace."""

    def test_signature_integrand(self, monkeypatch):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        integrand = captured_integrand(
            monkeypatch, projector, lambda: signature_operator(mode, dust_scale(5.0)))
        for u, r in zip(random_unitaries(16, 1), np.linspace(0.1, 1.0, 16)):
            want = (u.conj().T @ SIGMA3 @ u) * r
            got = np.array(integrand(1.0, float(r), u.ravel())).reshape(2, 2)
            assert np.abs(got - want).max() <= 1e-15

    def test_k_integrand(self, monkeypatch):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        phi = bump((1.0, 2.0), np.array([1.0, 0.4 - 0.7j]), 2.0)
        integrand = captured_integrand(
            monkeypatch, projector, lambda: k_m_apply(mode, dust_scale(5.0), phi))
        for u, t in zip(random_unitaries(16, 2), np.linspace(1.1, 1.9, 16)):
            want = u.conj().T @ (SIGMA3 @ phi(t)) * 0.8 / (2 * np.pi)
            got = np.array(integrand(t, 0.8, u.ravel()))
            assert np.abs(got - want).max() <= 1e-15

    def test_trace_integrand(self, monkeypatch):
        rng = np.random.default_rng(3)
        lams = (1.5, -2.5, 3.5)
        fam = cfs.build_family([Mode(lam=lam, mass=1.0, tau0=TAU0) for lam in lams],
                               dust_scale(5.0),
                               [(i, rng.normal(size=2) + 1j * rng.normal(size=2))
                                for i in range(3) for _ in range(2)],
                               require_negative_subspace=False)
        integrand = captured_integrand(
            monkeypatch, cfs, lambda: cfs.correlation_trace_lifetime_integral(fam))
        grams = np.array([sum(np.outer(m.spinor, m.spinor.conj())
                              for m in fam.members if m.mode_index == i)
                          for i in range(3)])
        for seed, r in enumerate(np.linspace(0.1, 1.0, 8)):
            u = random_unitaries(3, seed)
            want = -np.einsum("nab,nbc,nac,a->", u, grams, u.conj(),
                              np.diag(SIGMA3)).real * r
            (got,) = integrand(1.0, float(r), u.ravel())
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
