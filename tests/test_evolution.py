import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import mp_oracle
from diracsea import evolution
from diracsea.bloch import build_six_segment, build_twelve_segment

from diracsea.errors import DegenerateFrame, DomainError, InvalidParameter
from diracsea.evolution import (
    accumulated_phase,
    coefficient_matrix,
    diagonalizer,
    evolve,
    evolve_grid,
    frequency,
    hamiltonian,
    propagators,
    segment_propagator,
    wkb_deviation,
    wkb_deviation_by_generator,
    wkb_deviations,
    wkb_evolve,
)
from diracsea.model import (
    IDENTITY2,
    Mode,
    PiecewiseConstantScale,
    SIGMA3,
    constant_scale,
    dust_scale,
    spectral_norm,
    unitarity_defect,
)

TAU0 = float(np.pi / 2)


def research_mode(lam, mass=1.0, tau0=TAU0):
    return Mode(lam=lam, mass=mass, tau0=tau0, physical=False)


class TestHamiltonian:
    def test_decoupled_diagonal(self):
        mode = research_mode(0.0)
        h = hamiltonian(mode, constant_scale(1.0), 1.0)
        assert np.allclose(h.matrix, np.diag([1.0, -1.0]))

    def test_massless_limit_off_diagonal(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        m = coefficient_matrix(mode, 0.0)
        assert np.allclose(m, np.array([[0.0, -1.5], [-1.5, 0.0]]))

    def test_eigenvalues_are_frequency(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        h = hamiltonian(mode, constant_scale(2.0), 1.0)
        evals = np.linalg.eigvalsh(h.matrix)
        assert evals == pytest.approx([-2.5, 2.5])

    def test_domain_error_outside(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        with pytest.raises(DomainError):
            hamiltonian(mode, dust_scale(1.0), np.pi)


class TestEvolve:
    def test_identity_at_equal_times(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        res = evolve(mode, dust_scale(5.0), 1.0, 1.0)
        assert np.array_equal(res.u.matrix, np.eye(2))

    def test_decoupled_mode_integrates_exactly(self):
        mode = research_mode(0.0, mass=2.0)
        r, dtau = 3.0, 0.8
        res = evolve(mode, constant_scale(r), 1.0, 1.0 + dtau, tol=1e-11)
        expected = np.diag([np.exp(-1j * 2.0 * r * dtau),
                            np.exp(1j * 2.0 * r * dtau)])
        assert spectral_norm(res.u.matrix - expected) < 1e-9

    def test_half_rotation_segment_is_minus_i_h_over_f(self):
        # p = 0.5: duration pi/(2 f); spectral oracle cross-checked with expm
        mode = Mode(lam=1.5, mass=1.0, tau0=0.0)
        r = 2.0
        f = frequency(mode, r)
        dt = np.pi * 0.5 / f
        u = segment_propagator(mode.lam, mode.mass, r, dt)
        h = coefficient_matrix(mode, r)
        assert spectral_norm(u - (-1j * h / f)) < 1e-13
        assert spectral_norm(u - expm(-1j * h * dt)) < 1e-13

    def test_piecewise_crosses_breakpoints(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=0.0)
        sc = PiecewiseConstantScale(breakpoints=(0.0, 0.7, 1.9, 3.0),
                                    values=(2.0, 0.5, 1.3))
        res = evolve(mode, sc, 0.2, 2.6)
        oracle = (segment_propagator(mode.lam, mode.mass, 1.3, 0.7)
                  @ segment_propagator(mode.lam, mode.mass, 0.5, 1.2)
                  @ segment_propagator(mode.lam, mode.mass, 2.0, 0.5))
        assert spectral_norm(res.u.matrix - oracle) < 1e-13

    def test_group_law(self):
        mode = Mode(lam=2.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(8.0)
        tol = 1e-10
        rng = np.random.RandomState(7)
        for _ in range(5):
            a, b, c = np.sort(rng.uniform(0.3, np.pi - 0.3, 3))
            u_ca = evolve(mode, sc, a, c, tol=tol).u.matrix
            u_cb = evolve(mode, sc, b, c, tol=tol).u.matrix
            u_ba = evolve(mode, sc, a, b, tol=tol).u.matrix
            assert spectral_norm(u_ca - u_cb @ u_ba) < 10 * tol

    def test_reversibility(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(12.0)
        tol = 1e-10
        u_ab = evolve(mode, sc, 2.4, 0.0007, tol=tol).u.matrix
        u_ba = evolve(mode, sc, 0.0007, 2.4, tol=tol).u.matrix
        assert spectral_norm(u_ab - u_ba.conj().T) < 10 * tol

    def test_unitarity_defect_tracked(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        res = evolve(mode, dust_scale(30.0), 0.2, 3.0)
        assert res.u.defect <= 1e-10
        assert unitarity_defect(res.u.matrix) < 1e-14

    def test_tol_range_enforced(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        with pytest.raises(InvalidParameter):
            evolve(mode, dust_scale(1.0), 0.5, 1.0, tol=1e-3)
        with pytest.raises(InvalidParameter):
            evolve(mode, dust_scale(1.0), 0.5, 1.0, tol=1e-15)

    def test_grid_matches_pointwise(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(6.0)
        taus = [0.9, 1.7, 2.8]
        us = evolve_grid(mode, sc, 0.5, taus, tol=1e-11)
        for t, u in zip(taus, us):
            ref = evolve(mode, sc, 0.5, t, tol=1e-11).u.matrix
            assert spectral_norm(u - ref) < 1e-9

    @pytest.mark.parametrize("scale", [dust_scale(10.0), build_six_segment()],
                             ids=["smooth", "piecewise"])
    def test_empty_mode_stack_is_rejected(self, scale):
        with pytest.raises(InvalidParameter, match="at least one mode"):
            propagators((), scale, 1.0, [2.0])
        with pytest.raises(InvalidParameter, match="at least one mode"):
            evolution.exact_transport((), scale, 1.0)


def _away_from_underflow(bound):
    """Signed zeros, or magnitudes in [1e-100, bound]: no product underflows."""
    return st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-100, bound),
                     st.floats(-bound, -1e-100))


class TestExactTransportForms:
    # One mode steps on Python scalars, a stack on numpy; the numpy form is
    # the reference, so each entry must match it to the bit, signed zeros
    # too.  Every complex product here has one exactly zero term, so numpy's
    # fused multiply-add (where its SIMD loop uses one) and Python's
    # unfused product agree, except where a product underflows: there the
    # sign of a zero may differ, so the inputs stay clear of underflow.
    @settings(max_examples=300, deadline=None)
    @given(_away_from_underflow(20.0), st.floats(1e-3, 50.0),
           st.one_of(st.just(0.0), st.floats(1e-100, 1e3)),
           st.lists(_away_from_underflow(1e3), min_size=16, max_size=16),
           st.floats(0.0, 3.0))
    def test_one_mode_is_the_first_block_of_a_stack(self, lam, mass, r, parts, t):
        mode = research_mode(lam, mass=mass)
        one = evolution.exact_transport((mode,), dust_scale(10.0), TAU0)
        # the partner turns at the same rate, so the stack's ceiling is the mode's
        two = evolution.exact_transport((mode, research_mode(-lam, mass=mass)),
                                        dust_scale(10.0), TAU0)
        state = np.array(parts[:8]) + 1j * np.array(parts[8:])
        x = state[:4].copy()
        assert (np.asarray(one.rhs(t, r, x), dtype=complex).tobytes()
                == np.asarray(two.rhs(t, r, state))[:4].tobytes())
        assume(np.abs(np.linalg.det(state.reshape(2, 2, 2))).min() > 1e-9)
        assert one.restore(t, x).tobytes() == two.restore(t, state)[:4].tobytes()
        assert one.frequency(r) == two.frequency(r)
        assert np.array_equal(one.start, two.start[:4])


class TestWkbFrame:
    def test_frequency_value(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        assert frequency(mode, constant_scale(2.0).value(1.0)) == pytest.approx(2.5)

    def test_massless_limit_frequency(self):
        mode = Mode(lam=-3.5, mass=1.0, tau0=TAU0)
        assert frequency(mode, 0.0) == pytest.approx(3.5)

    def test_diagonalization_residual(self):
        rng = np.random.RandomState(3)
        for _ in range(25):
            lam = rng.uniform(-8, 8)
            mass = rng.uniform(0.1, 5.0)
            r = rng.uniform(0.0, 10.0)
            mode = research_mode(lam if lam != 0 else 1.0, mass=mass)
            v = diagonalizer(mode, r)
            coeff = coefficient_matrix(mode, r)
            f = frequency(mode, r)
            resid = v @ coeff @ v.conj().T - f * SIGMA3.real
            assert spectral_norm(resid) < 1e-12 * max(1.0, f)
            assert unitarity_defect(v) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 50.0), st.sampled_from([1.0, -1.0]), st.floats(0.01, 10.0),
           st.lists(st.floats(0.0, 1e4), min_size=1, max_size=12))
    def test_array_frames_are_the_scalar_frames(self, size, sign, mass, rs):
        # bit for bit per element, and V H V^T = f sigma3 to rounding
        mode = research_mode(sign * size, mass=mass)
        stack = diagonalizer(mode, np.array(rs))
        assert stack.shape == (len(rs), 2, 2)
        for r, v in zip(rs, stack):
            one = diagonalizer(mode, r)
            assert one.shape == (2, 2)
            assert np.array_equal(one.view(float), v.view(float))
            f = frequency(mode, r)
            resid = v.real @ coefficient_matrix(mode, r).real @ v.real.T
            assert spectral_norm(resid - f * SIGMA3.real) <= 1e-15 * f

    def test_phase_convention_first_component(self):
        mode = Mode(lam=-2.5, mass=1.0, tau0=TAU0)
        v = diagonalizer(mode, 1.3)
        # eigenvectors are the conjugated rows; first components >= 0
        assert v[0, 0].real >= 0 and abs(v[0, 0].imag) == 0
        assert v[1, 0].real >= 0

    def test_degenerate_frame(self):
        mode = research_mode(0.0)
        with pytest.raises(DegenerateFrame):
            diagonalizer(mode, 0.0)

    def test_accumulated_phase_piecewise_exact(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=0.0)
        sc = PiecewiseConstantScale(breakpoints=(0.0, 1.0, 2.5),
                                    values=(2.0, 3.0))
        want = frequency(mode, 2.0) * 1.0 + frequency(mode, 3.0) * 1.5
        assert accumulated_phase(mode, sc, 0.0, 2.5) == pytest.approx(want)
        assert accumulated_phase(mode, sc, 2.5, 0.0) == pytest.approx(-want)


class TestWkbEvolve:
    def test_identity_at_equal_times(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        u = wkb_evolve(mode, dust_scale(4.0), 1.2, 1.2)
        assert spectral_norm(u.matrix - np.eye(2)) < 1e-14

    def test_exact_for_constant_scale(self):
        mode = Mode(lam=2.5, mass=1.5, tau0=TAU0)
        sc = constant_scale(3.0)
        tol = 1e-10
        u = evolve(mode, sc, 0.7, 2.9, tol=tol).u.matrix
        uw = wkb_evolve(mode, sc, 0.7, 2.9).matrix
        assert spectral_norm(u - uw) < 10 * tol

    def test_deviation_identity_at_tau0(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        w = wkb_deviation(mode, dust_scale(10.0), TAU0)
        assert spectral_norm(w.matrix - IDENTITY2) < 1e-12

    def test_deviation_product_vs_generator_ode(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(10.0)
        for tau in (0.8, 2.5):
            w_prod = wkb_deviation(mode, sc, tau, tol=1e-11).matrix
            w_ode = wkb_deviation_by_generator(mode, sc, tau, tol=1e-11).matrix
            assert spectral_norm(w_prod - w_ode) < 1e-8

    def test_monotone_interval_increment_bound(self):
        # on intervals where R is monotone the deviation growth is capped by
        # half the swept arctan of m R / lam
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        sc = dust_scale(10.0)
        for t1, t2 in [(0.6, 1.1), (1.2, 2.0), (2.2, 2.9)]:
            w1 = spectral_norm(wkb_deviation(mode, sc, t1, tol=1e-11).matrix - IDENTITY2)
            w2 = spectral_norm(wkb_deviation(mode, sc, t2, tol=1e-11).matrix - IDENTITY2)
            cap = 0.5 * abs(np.arctan(sc.value(t2) / mode.lam)
                            - np.arctan(sc.value(t1) / mode.lam))
            assert abs(w2 - w1) <= cap + 1e-8

    def test_deviation_scale_invariant_product_bounded(self):
        # ||W - 1|| * m R / |lam| stays of one size as r_max grows 10x
        mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
        window = np.linspace(0.5, 2.5, 21)
        sups = {}
        for r_max in (10.0, 100.0):
            sc = dust_scale(r_max)
            devs = spectral_norm(wkb_deviations(mode, sc, window, tol=1e-10) - IDENTITY2)
            sups[r_max] = max(d * sc.value(t) / abs(mode.lam)
                              for d, t in zip(devs, window))
        assert sups[100.0] <= 1.5 * sups[10.0]
        assert sups[100.0] < 1.0


class TestPiecewisePropagators:
    """The closed form U(t <- tau_from) = E(r_k, t - t_k) C_k U(tau_from <- 0)^dagger."""

    @pytest.mark.parametrize("build", [build_six_segment, build_twelve_segment],
                             ids=["six_segment", "twelve_segment"])
    @pytest.mark.parametrize("tau_from_frac", [0.0, 0.37])
    def test_every_stop_against_40_digit_products(self, build, tau_from_frac):
        scen = build()
        modes = (scen.mode, Mode(lam=-2.5, mass=1.0, tau0=0.0))
        tau_from = tau_from_frac * scen.tau_end
        # breakpoints, the ends and points inside segments, in both directions
        taus = sorted({*scen.breakpoints, *np.linspace(0.0, scen.tau_end, 23)})
        taus = taus[::-1] if tau_from_frac else taus
        stacks, work = propagators(modes, scen, tau_from, taus)
        for t, stack in zip(taus, stacks):
            for mode, u in zip(modes, stack):
                want = mp_oracle.to_complex(mp_oracle.propagator(mode, scen, tau_from, t))
                assert np.abs(u - np.array(want)).max() <= 2e-14
        # the work: the pieces of every stop-to-stop leg
        legs = zip([tau_from, *taus], taus)
        assert work == sum(len(scen.pieces(min(a, b), max(a, b)))
                           for a, b in legs if a != b)

    def test_group_law(self):
        scen = build_twelve_segment()
        mode = scen.mode
        a, b, c = 0.2 * scen.tau_end, 0.55 * scen.tau_end, 0.9 * scen.tau_end
        ((u_ca,),), _ = propagators((mode,), scen, a, [c])
        ((u_cb,),), _ = propagators((mode,), scen, b, [c])
        ((u_ba,),), _ = propagators((mode,), scen, a, [b])
        assert spectral_norm(u_cb @ u_ba - u_ca) < 1e-14
        assert spectral_norm(propagators((mode,), scen, c, [a])[0][0][0]
                             - u_ca.conj().T) < 1e-14

    def test_debug_line_per_call(self, caplog):
        scen = build_six_segment()
        taus = np.linspace(0.0, scen.tau_end, 5)
        caplog.set_level(logging.DEBUG, logger="diracsea")
        _, work = propagators((scen.mode,), scen, 0.0, taus)
        lines = [r.getMessage() for r in caplog.records if r.name == "diracsea.evolution"]
        assert lines == [f"propagators: 5 stops, {work} segments"]

    def test_one_stop_forms_no_product_past_its_segment(self, monkeypatch):
        # a stop in segment 2 of five needs the full exponentials of
        # segments 0 and 1 alone, one prefix product each
        sc = PiecewiseConstantScale(breakpoints=(0.0, 0.7, 1.1, 1.6, 2.4, 3.0),
                                    values=(2.0, 0.8, 3.5, 1.3, 2.6))
        mode = Mode(lam=-1.5, mass=1.0, tau0=0.0)
        formed = []
        exponentials = evolution.segment_propagator
        monkeypatch.setattr(evolution, "segment_propagator",
                            lambda *args: formed.append(exponentials(*args)) or formed[-1])
        one_stop = evolve(mode, sc, 0.2, 1.3)
        assert [len(e) for e in formed] == [2, 2]  # full segments, then the two stops
        assert one_stop.step_count == 3
        # a stop in the last segment forms every full segment, and the
        # product to the nearer stop stays the same bit for bit
        formed.clear()
        (_, (u_near,)), _ = propagators((mode,), sc, 0.2, [2.8, 1.3])
        assert len(formed[0]) == 4
        assert np.array_equal(u_near, one_stop.u.matrix)
