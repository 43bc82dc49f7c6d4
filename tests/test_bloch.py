import logging
import re

import numpy as np
import pytest
from scipy.integrate import simpson

import diracsea.bloch
import frame_oracle
import mp_oracle
from frame_oracle import frame_rows
from diracsea.bloch import (
    BlochState,
    bloch_axis,
    build_six_segment,
    build_twelve_segment,
    make_scenario,
    perturb_scenario,
    propagate_bloch,
    rotation_and_integral,
    rotation_generator,
    scenario_signature_components,
    scenario_v_rows_with_cumulative,
    v_components,
    v_rows_with_cumulative,
    v_trace_formula,
)
from diracsea.errors import ConventionMismatch, InvalidParameter
from diracsea.evolution import evolve_grid, frequency
from diracsea.model import (Mode, PiecewiseConstantScale, dust_scale, SIGMA1,
                            SIGMA2, SIGMA3, spectral_norm)

PAULI = (SIGMA1, SIGMA2, SIGMA3)


def scenario_mode(lam=1.5, mass=1.0):
    return Mode(lam=lam, mass=mass, tau0=0.0)


class TestAxis:
    def test_massless_limit(self):
        d = bloch_axis(scenario_mode(), 0.0)
        assert np.allclose(d, [3.0, 0.0, 0.0])

    def test_tilt_angle_ten_degrees(self):
        mode = scenario_mode()
        r1 = (mode.lam / mode.mass) / np.tan(np.radians(10.0))
        d = bloch_axis(mode, r1)
        cosang = np.dot(d, [0.0, 0.0, -1.0]) / np.linalg.norm(d)
        assert np.degrees(np.arccos(cosang)) == pytest.approx(10.0, abs=1e-10)

    def test_length_is_twice_frequency(self):
        mode = scenario_mode(lam=2.5)
        for r in (0.0, 1.3, 8.0):
            assert np.linalg.norm(bloch_axis(mode, r)) == pytest.approx(
                2.0 * frequency(mode, r))

    def test_generator_is_reversed_axis(self):
        mode = scenario_mode()
        assert np.allclose(rotation_generator(mode, 2.0),
                           -bloch_axis(mode, 2.0))


class TestRotationPrimitives:
    def test_parallel_vector_is_stationary(self):
        axis = np.array([1.0, 2.0, -0.5])
        rot, _ = rotation_and_integral(axis, 1.234 / np.linalg.norm(axis))
        assert np.allclose(rot @ axis, axis)

    def test_full_turn_is_identity(self):
        rot, _ = rotation_and_integral([0.0, 1.0, 0.0], 2 * np.pi)
        assert np.allclose(rot, np.eye(3), atol=1e-15)

    def test_half_turn_is_reflection_through_axis(self):
        axis = np.array([3.0, 0.0, -1.0])
        a = axis / np.linalg.norm(axis)
        rot, _ = rotation_and_integral(a, np.pi)
        assert np.allclose(rot, 2 * np.outer(a, a) - np.eye(3), atol=1e-14)

    def test_time_integral_against_quadrature(self):
        gen = np.array([0.7, -1.1, 2.0])
        dt = 0.9
        ts = np.linspace(0.0, dt, 4001)
        mats, _ = rotation_and_integral(gen, ts)
        oracle = simpson(mats, x=ts, axis=0)
        assert np.allclose(rotation_and_integral(gen, dt)[1], oracle, atol=1e-10)

    def test_stacks_are_elementwise_and_a_still_generator_is_identity(self):
        gens = np.array([[0.7, -1.1, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, -1.0]])
        dts = np.array([0.9, 0.4, 1.7])
        rots, ints = rotation_and_integral(gens, dts)
        for gen, dt, rot, integral in zip(gens, dts, rots, ints):
            one_rot, one_int = rotation_and_integral(gen, dt)
            assert np.array_equal(rot, one_rot) and np.array_equal(integral, one_int)
        assert np.array_equal(rots[1], np.eye(3))
        assert np.array_equal(ints[1], 0.4 * np.eye(3))

    def test_circular_motion_about_vertical_axis(self):
        # decoupled mode: the axis is vertical, e1 sweeps toward e2
        mode = Mode(lam=0.0, mass=1.0, tau0=0.0, physical=False)
        scen = make_scenario(mode, [(2.0, 1.0)])
        t = 0.2
        state = propagate_bloch(mode, scen, [t])[0]
        speed = 2.0 * mode.mass * 2.0
        assert np.allclose(state.w[:, 0],
                           [np.cos(speed * t), np.sin(speed * t), 0.0],
                           atol=1e-12)


class TestScenario:
    def test_segment_durations(self):
        mode = scenario_mode()
        scen = make_scenario(mode, [(2.0, 1.5), (0.5, 0.5)])
        for width, r, p in zip(np.diff(scen.breakpoints), scen.values,
                               scen.rotations):
            f = frequency(mode, r)
            assert width == pytest.approx(np.pi * p / f)

    def test_twelve_segment_total_duration_formula(self):
        scen = build_twelve_segment()
        total = sum(np.pi * p / frequency(scen.mode, r)
                    for r, p in zip(scen.values, scen.rotations))
        assert scen.total_duration == pytest.approx(total, rel=1e-14)
        assert scen.total_duration != pytest.approx(np.pi, rel=0.1)

    def test_requires_tau0_zero(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=0.5)
        with pytest.raises(InvalidParameter):
            make_scenario(mode, [(1.0, 1.0)])

    def test_perturbation(self):
        scen = build_twelve_segment()
        pert = perturb_scenario(scen, 0, 0.01)
        assert pert.rotations[0] == pytest.approx(5.51)
        assert pert.rotations[1] == scen.rotations[1]

    def test_integer_rotation_count_maps_to_identity(self):
        mode = scenario_mode()
        scen = make_scenario(mode, [(3.0, 2.0)])
        state = propagate_bloch(mode, scen, [scen.total_duration])[0]
        assert np.allclose(state.w, np.eye(3), atol=1e-12)

    def test_half_integer_rotation_count_reflects_through_axis(self):
        mode = scenario_mode()
        scen = make_scenario(mode, [(3.0, 2.5)])
        state = propagate_bloch(mode, scen, [scen.total_duration])[0]
        d = bloch_axis(mode, 3.0)
        a = d / np.linalg.norm(d)
        assert np.allclose(state.w, 2 * np.outer(a, a) - np.eye(3),
                           atol=1e-12)

    def test_frame_is_trace_formula_conjugation(self):
        # the rotation route must reproduce the unitary-conjugation frame
        mode = scenario_mode()
        scen = make_scenario(mode, [(2.0, 0.8), (0.7, 1.3), (4.0, 0.45)])
        taus = np.linspace(0.0, scen.total_duration, 9)
        states = propagate_bloch(mode, scen, taus)
        us = evolve_grid(mode, scen, 0.0, taus)
        for st, u in zip(states, us):
            for alpha in range(3):
                oracle = np.array([
                    0.5 * np.trace(s @ (u @ PAULI[alpha] @ u.conj().T)).real
                    for s in PAULI])
                assert np.allclose(st.w[:, alpha], oracle, atol=1e-12)


class TestSixAndTwelve:
    def test_six_segment_radii(self):
        scen = build_six_segment()
        r1 = 1.5 / np.tan(np.radians(10.0))
        r2 = 1.5 / np.tan(np.radians(70.0))
        assert scen.values[0] == pytest.approx(r1)
        assert scen.values[1] == pytest.approx(r2)
        assert list(scen.rotations) == [5.5, 0.5] * 3

    @pytest.mark.parametrize("builder", [build_six_segment, build_twelve_segment])
    def test_non_physical_lambda_builds_research_mode(self, builder):
        scen = builder(lam=0.5)
        assert scen.mode.physical is False
        assert scen.mode.lam == 0.5

    def test_six_segment_partial_symmetry(self):
        scen = build_six_segment()
        svec, s0 = scenario_signature_components(scen)
        r_max = scen.r_max
        assert abs(svec[0]) <= 1e-8 * r_max
        assert abs(svec[2]) <= 1e-8 * r_max
        assert abs(svec[1]) >= 1e-3 * r_max
        assert s0 == 0.0

    def test_reflection_pair_rotates_about_e2(self):
        # two half-integer segments compose to a 120-degree turn about e2
        scen = build_six_segment()
        t_pair = scen.breakpoints[2]
        state = propagate_bloch(scen.mode, scen, [t_pair])[0]
        rot = state.w
        angle = np.arccos((np.trace(rot) - 1.0) / 2.0)
        assert np.degrees(angle) == pytest.approx(120.0, abs=1e-9)
        # rotation axis (unit eigenvector for eigenvalue 1) is +-e2
        w, v = np.linalg.eig(rot)
        axis = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        assert abs(abs(axis[1]) - 1.0) < 1e-10

    def test_twelve_segment_signature_vanishes(self):
        scen = build_twelve_segment()
        svec, _ = scenario_signature_components(scen)
        assert np.linalg.norm(svec) <= 1e-8 * scen.r_max

    def test_single_segment_integer_p_against_quadrature(self):
        # closed-form segment integral vs Simpson on the trace-formula values
        mode = scenario_mode()
        scen = make_scenario(mode, [(2.0, 3.0)])
        svec, _ = scenario_signature_components(scen)
        taus = np.linspace(0.0, scen.total_duration, 4001)
        rows = v_trace_formula(mode, scen, taus)
        vmat = np.array(rows)
        oracle = simpson(vmat * 2.0, x=taus, axis=0)  # R = 2 on the segment
        assert np.allclose(svec, oracle, atol=1e-9)


class TestVComponents:
    def test_initial_row_is_vertical(self):
        scen = build_six_segment()
        rows = v_components(scen.mode, scen, [0.0, 1.0])
        assert rows[0][1:] == (0.0, 0.0, 1.0)

    def test_components_bounded_by_one(self):
        scen = build_twelve_segment()
        taus = np.linspace(0.0, scen.total_duration, 101)
        for row in v_components(scen.mode, scen, taus):
            assert all(abs(v) <= 1.0 + 1e-12 for v in row[1:])

    def test_trace_and_rotation_routes_agree(self):
        # guards the SO(3) closed forms' hard-wired orientation
        scen = build_six_segment()
        taus = np.linspace(0.0, scen.total_duration, 33)
        trace_rows = v_trace_formula(scen.mode, scen, taus)
        closed_rows = np.array(scenario_v_rows_with_cumulative(scen.mode, scen, taus))
        assert np.max(np.abs(trace_rows - closed_rows[:, 1:4])) < 1e-8

    def test_smooth_scale_routes_agree(self):
        mode = Mode(lam=1.5, mass=1.0, tau0=np.pi / 2)
        sc = dust_scale(5.0)
        rows = v_components(mode, sc, np.linspace(0.5, 2.6, 11))
        assert rows[0][0] == 0.5

    @pytest.mark.parametrize("tol,steps", [(1e-10, [(67, 0), (254, 1)]),
                                           (1e-6, [(25, 0), (116, 0)])])
    def test_smooth_rows_take_pinned_steps(self, caplog, tol, steps):
        # the propagator turns at f, so a step turns it by at most 0.1 rad
        # (the ceiling binds at tol 1e-6): the carry from tau0 to the first
        # row, then one sweep through the rows, v columns and integrals alike
        caplog.set_level(logging.DEBUG, logger="diracsea")
        v_rows_with_cumulative(Mode(1.5, 1.0, np.pi / 2), dust_scale(5.0),
                               np.linspace(0.5, 2.6, 21), tol)
        sweeps = [re.fullmatch(r"cointegrate: \d+ stops, width \d+, (\d+) accepted, "
                               r"(\d+) rejected, \d+ rhs evaluations", r.getMessage())
                  for r in caplog.records if r.name == "diracsea.evolution"]
        assert [tuple(map(int, m.groups())) for m in sweeps] == steps

    @pytest.mark.parametrize("kind", ["scenario", "piecewise", "smooth"])
    def test_one_sweep_rows_join_both_routes(self, kind):
        # piecewise: exactly the trace formula's v and the closed-form
        # integrals; smooth: a sweep of its own, so its v lie within 1e-11 of
        # the trace formula's and its integrals within 1e-10 of the rotation
        # oracle's (2.9e-12 and 2.5e-11 measured)
        scen = build_six_segment()
        if kind == "scenario":
            mode, scale = scen.mode, scen
            taus = np.linspace(0.0, scen.total_duration, 21)
        else:
            mode = Mode(lam=1.5, mass=1.0, tau0=np.pi / 2)
            taus = np.linspace(0.5, 2.6, 21)
            scale = (dust_scale(5.0) if kind == "smooth"
                     else PiecewiseConstantScale(scen.breakpoints, scen.values))
        if kind == "smooth":
            cum, v_tol, cum_tol = frame_rows(mode, scale, taus)[1], 1e-11, 1e-10
        else:
            cum = np.array(scenario_v_rows_with_cumulative(mode, scale, taus))[:, 4:]
            v_tol = cum_tol = 0.0
        rows = v_rows_with_cumulative(mode, scale, taus)
        trace = v_trace_formula(mode, scale, taus)
        assert [row[0] for row in rows] == list(taus)
        assert np.abs(np.array(rows)[:, 1:4] - trace).max() <= v_tol
        assert np.abs(np.array(rows)[:, 4:] - cum).max() <= cum_tol
        assert [r[:4] for r in rows] == v_components(mode, scale, taus)

    def test_twelve_segment_rows_against_40_digit_reference(self):
        # the bloch command's v columns on scenarios/twelve_segment_bloch.json
        # (481 samples from tau0 = 0); the worst error there is 1.20e-14
        scen = build_twelve_segment()
        mode = scen.mode
        taus = np.linspace(mode.tau0, scen.tau_end, 481)
        for t, *v in (row[:4] for row in v_rows_with_cumulative(mode, scen, taus)):
            want = mp_oracle.v_components(mp_oracle.propagator(mode, scen, mode.tau0, t))
            assert np.abs(np.subtract(v, want)).max() <= 1.5e-14

    def test_one_sweep_rows_catch_flipped_chirality(self, monkeypatch):
        scen = build_six_segment()
        monkeypatch.setattr(diracsea.bloch, "rotation_generator",
                            diracsea.bloch.bloch_axis)
        with pytest.raises(ConventionMismatch):
            v_rows_with_cumulative(scen.mode, scen,
                                   np.linspace(0.0, scen.total_duration, 9))

    def test_twelve_segment_cumulative_cancellation(self):
        scen = build_twelve_segment()
        rows = scenario_v_rows_with_cumulative(
            scen.mode, scen, [0.0, scen.total_duration / 3, scen.total_duration])
        final = np.array(rows[-1][4:])
        assert np.all(np.abs(final) <= 1e-8 * scen.r_max)

    def test_cumulative_matches_signature_components(self):
        scen = build_six_segment()
        rows = scenario_v_rows_with_cumulative(scen.mode, scen,
                                               [0.0, scen.total_duration])
        svec, _ = scenario_signature_components(scen)
        assert np.allclose(np.array(rows[-1][4:]), svec, atol=1e-12)

    def test_smooth_cumulative_against_signature(self):
        # integrate v R over nearly the whole lifetime; compare with the
        # signature Pauli vector from the co-integrated quadrature
        from diracsea.projector import signature_operator

        mode = Mode(lam=1.5, mass=1.0, tau0=np.pi / 2)
        sc = dust_scale(3.0)
        eps = 1e-6
        rows = v_rows_with_cumulative(mode, sc, [eps, np.pi - eps], tol=1e-11)
        cum = np.array(rows[-1][4:])
        sig = signature_operator(mode, sc, tol=1e-11, ode_tol=1e-11)
        _, c1, c2, c3 = sig.s.pauli_components()
        assert np.allclose(cum, [c1, c2, c3], atol=1e-6)

    @pytest.mark.parametrize("tau0", [0.0, 0.2, 1.3])
    def test_piecewise_pair_cumulative_against_quadrature(self, tau0):
        # closed-form frames re-referenced to tau0, against segment-wise
        # quadrature of the trace formula's v R from the first grid point
        from scipy.integrate import quad_vec

        mode = Mode(lam=5.5, mass=1.0, tau0=tau0)
        sc = PiecewiseConstantScale((0.0, 0.9, 1.7, 2.8), (2.2, 0.7, 1.4))
        taus = [0.1, 0.8, 1.2, 2.75]
        rows = scenario_v_rows_with_cumulative(mode, sc, taus)
        trace_rows = v_trace_formula(mode, sc, taus)
        for t, row, want_v in zip(taus, rows, trace_rows):
            want = sum(quad_vec(lambda s: v_trace_formula(mode, sc, [s])[0] * r,
                                a, b, epsabs=1e-13)[0]
                       for a, b, r in sc.pieces(taus[0], t)) if t > taus[0] else 0.0
            assert np.allclose(row[1:4], want_v, rtol=0.0, atol=1e-12)
            assert np.allclose(row[4:], want, rtol=0.0, atol=1e-11)


class TestSmoothRotationOracle:
    """Smooth frames and rows against the frame's own SO(3) ODE (``frame_oracle``)."""

    MODE = Mode(lam=1.5, mass=1.0, tau0=np.pi / 2)
    TAUS = np.linspace(0.3, 2.8, 41)

    @pytest.mark.parametrize("r_max", [5.0, 30.0, 100.0])
    def test_frames_and_rows_match_the_rotation_ode(self, r_max):
        # at the default tol, measured: frames 4.0e-12, 1.4e-11, 5.8e-11;
        # v 2.5e-12, 4.2e-12, 8.8e-12; integrals 9.2e-12, 1.7e-11, 2.2e-11
        # of their largest value
        sc = dust_scale(r_max)
        frames, cum = frame_rows(self.MODE, sc, self.TAUS)
        ws = np.array([st.w for st in propagate_bloch(self.MODE, sc, self.TAUS)])
        rows = np.array(v_rows_with_cumulative(self.MODE, sc, self.TAUS))
        assert np.abs(ws - frames).max() <= 1e-10
        assert np.abs(rows[:, 1:4] - frames[:, 2, :]).max() <= 3e-11
        assert np.abs(rows[:, 4:] - cum).max() <= 5e-11 * np.abs(cum).max()

    def test_the_oracle_sees_a_flipped_chirality(self, monkeypatch):
        monkeypatch.setattr(frame_oracle, "rotation_generator", bloch_axis)
        sc = dust_scale(5.0)
        frames, _ = frame_rows(self.MODE, sc, self.TAUS)
        ws = np.array([st.w for st in propagate_bloch(self.MODE, sc, self.TAUS)])
        assert np.abs(ws - frames).max() > 0.1


class TestBlochState:
    def test_batched_check_rejects_a_non_rotation_inside_a_grid(self):
        scen = build_six_segment()
        taus = np.linspace(0.0, scen.total_duration, 9)
        ws, _ = diracsea.bloch._frames_at(scen.mode, scen, taus)
        diracsea.bloch._check_rotations(ws)
        for bad in (np.diag([1.0, 1.0, 1.1]), np.diag([1.0, 1.0, -1.0])):
            grid = ws.copy()
            grid[4] = bad
            with pytest.raises(InvalidParameter, match="not a rotation"):
                diracsea.bloch._check_rotations(grid)

    def test_reported_defect_is_the_spectral_norm(self):
        # frames pushed off SO(3) by a random symmetric stretch: the message
        # names the spectral norm of W^T W - 1, as an SVD gives it
        rng = np.random.default_rng(5)
        for size in (1e-9, 1e-6, 1e-3):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            q *= np.sign(np.linalg.det(q))
            a = rng.normal(size=(3, 3))
            w = q @ (np.eye(3) + size * (a + a.T))
            want = spectral_norm(w.T @ w - np.eye(3))
            with pytest.raises(InvalidParameter, match=re.escape(f"defect {want:.3e},")):
                diracsea.bloch._check_rotations(w[None])

    def test_rows_check_every_frame_of_the_grid(self, monkeypatch):
        # one stacked rotation stretched off SO(3) fails the rows' batched check
        scen = build_six_segment()
        rotations = diracsea.bloch.rotation_and_integral

        def stretched(generator, dt):
            rots, ints = rotations(generator, dt)
            rots[3] *= 1.0 + 1e-6
            return rots, ints

        monkeypatch.setattr(diracsea.bloch, "rotation_and_integral", stretched)
        with pytest.raises(InvalidParameter, match="not a rotation"):
            scenario_v_rows_with_cumulative(scen.mode, scen,
                                            np.linspace(0.0, scen.total_duration, 9))

    def test_rejects_non_rotation(self):
        with pytest.raises(InvalidParameter):
            BlochState(w=np.diag([1.0, 1.0, 1.1]), tau=0.0)
        with pytest.raises(InvalidParameter):
            BlochState(w=np.diag([1.0, 1.0, -1.0]), tau=0.0)  # det -1

    def test_frames_stay_orthogonal_along_trajectory(self):
        rng = np.random.RandomState(11)
        for _ in range(10):
            pairs = [(rng.uniform(0.3, 6.0), rng.choice([0.5, 1.0, 1.5, 2.5]))
                     for _ in range(rng.randint(1, 6))]
            scen = make_scenario(scenario_mode(), pairs)
            taus = np.linspace(0.0, scen.total_duration, 17)
            for st in propagate_bloch(scen.mode, scen, taus):
                defect = np.linalg.norm(st.w.T @ st.w - np.eye(3), 2)
                assert defect <= 1e-10
                assert np.linalg.det(st.w) > 0


class TestGridAndToleranceChecks:
    SMOOTH = dust_scale(5.0)
    SMOOTH_MODE = Mode(lam=1.5, mass=1.0, tau0=1.0)

    @pytest.mark.parametrize("tol", [0.5, float("nan")])
    @pytest.mark.parametrize("route", [propagate_bloch, v_rows_with_cumulative])
    def test_routes_check_the_ode_tolerance_on_both_scale_kinds(self, route, tol):
        for mode, scale in ((self.SMOOTH_MODE, self.SMOOTH),
                            (scenario_mode(), build_six_segment())):
            with pytest.raises(InvalidParameter, match="ode tolerance"):
                route(mode, scale, [1.0, 2.0], tol=tol)

    @pytest.mark.parametrize("route", [propagate_bloch, v_trace_formula, v_components,
                                       v_rows_with_cumulative])
    def test_empty_grid_rejected_on_both_scale_kinds(self, route):
        for mode, scale in ((self.SMOOTH_MODE, self.SMOOTH),
                            (scenario_mode(), build_six_segment())):
            with pytest.raises(InvalidParameter, match="empty"):
                route(mode, scale, [])
        with pytest.raises(InvalidParameter, match="empty"):
            scenario_v_rows_with_cumulative(scenario_mode(), build_six_segment(), [])
