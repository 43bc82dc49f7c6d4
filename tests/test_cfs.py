import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracsea.stepper
from diracsea.bloch import build_six_segment
from diracsea.cfs import (
    Classification,
    build_family,
    causal_classify,
    correlation_trace_lifetime_integral,
    kernel_apply,
    local_correlation,
    members_at,
    negative_subspace_family,
    orthonormalize,
    product_spectrum,
    regularized_kernel,
)
from diracsea.errors import DegenerateFamily, InvalidParameter
from diracsea.evolution import evolve
from diracsea.model import (Mode, PiecewiseConstantScale, SIGMA3, bump, dust_scale,
                            spectral_norm)
from diracsea.projector import fermionic_projector_apply, signature_operator

TAU0 = float(np.pi / 2)
SPECTRUM = (1.5, -1.5, 2.5, -2.5, 3.5, -3.5, 4.5, -4.5)
SCALE = dust_scale(5.0)
FIVE_STEPS = PiecewiseConstantScale(breakpoints=(0.0, 0.7, 1.1, 1.6, 2.4, 3.0),
                                    values=(2.0, 0.8, 3.5, 1.3, 2.6))


def modes(*lams):
    return tuple(Mode(lam=l, mass=1.0, tau0=TAU0) for l in lams)


def full_fiber_family(mode_lams, scale=SCALE, seed=0):
    """Research family: random members spanning the fiber of each mode."""
    rng = np.random.RandomState(seed)
    ms = modes(*mode_lams)
    members = []
    for i in range(len(ms)):
        for _ in range(2):
            members.append((i, rng.randn(2) + 1j * rng.randn(2)))
    return build_family(ms, scale, members, require_negative_subspace=False)


class TestFamilyConstruction:
    def test_membership_validation_rejects_positive_subspace(self):
        ms = modes(1.5)
        sig = signature_operator(ms[0], SCALE)
        pos_vec = sig.eigvectors.matrix[:, 1]  # eigenvector with mu_plus
        with pytest.raises(InvalidParameter):
            build_family(ms, SCALE, [(0, pos_vec)])

    def test_negative_subspace_family_members_validated(self):
        fam = negative_subspace_family(modes(1.5, -2.5), SCALE)
        assert fam.size == 2
        assert spectral_norm(fam.gram - np.eye(2)) < 1e-10

    def test_mode_index_bounds(self):
        with pytest.raises(InvalidParameter):
            build_family(modes(1.5), SCALE, [(1, np.array([1.0, 0.0]))],
                         require_negative_subspace=False)

    @pytest.mark.parametrize("tols,match", [
        ({"ode_tol": 5.0, "quad_tol": np.nan, "gap_tol": -1.0}, "ode tolerance"),
        ({"quad_tol": np.nan, "gap_tol": -1.0}, "quadrature tolerance"),
        ({"gap_tol": -1.0}, "gap_tol"),
    ], ids=["ode_first", "quad_next", "gap_last"])
    @pytest.mark.parametrize("build", ["build_family", "negative_subspace_family"])
    def test_family_checks_every_tolerance_it_takes(self, build, tols, match):
        # with no negative-subspace check no tolerance is read, but each is checked
        with pytest.raises(InvalidParameter, match=match):
            if build == "build_family":
                build_family(modes(1.5), SCALE, [(0, (1, 0))],
                             require_negative_subspace=False, **tols)
            else:
                negative_subspace_family(modes(1.5), SCALE, **tols)


class TestOrthonormalize:
    def test_unit_member_unchanged(self):
        fam = negative_subspace_family(modes(1.5), SCALE)
        out = orthonormalize(fam)
        assert np.allclose(out.members[0].spinor, fam.members[0].spinor)

    def test_two_identical_members_degenerate(self):
        ms = modes(1.5)
        sig = signature_operator(ms[0], SCALE)
        neg = sig.eigvectors.matrix[:, 0]
        fam = build_family(ms, SCALE, [(0, neg), (0, neg)])
        with pytest.raises(DegenerateFamily):
            orthonormalize(fam)

    def test_random_four_member_family_gram_identity(self):
        fam = orthonormalize(full_fiber_family([1.5, 2.5], seed=3))
        # oracle: recompute the Gram matrix from scratch
        g = np.zeros((4, 4), dtype=complex)
        for j, a in enumerate(fam.members):
            for k, b in enumerate(fam.members):
                if a.mode_index == b.mode_index:
                    g[j, k] = np.vdot(a.spinor, b.spinor)
        assert spectral_norm(g - np.eye(4)) < 1e-10


def one_member_per_mode(ms, scale=SCALE, seed=0):
    rng = np.random.RandomState(seed)
    return build_family(ms, scale, [(i, rng.randn(2) + 1j * rng.randn(2))
                                    for i in range(len(ms))],
                        require_negative_subspace=False)


def per_mode_members(fam, tau, tol=1e-10):
    return [evolve(fam.modes[m.mode_index], fam.scale, fam.modes[m.mode_index].tau0,
                   tau, tol=tol).u.matrix @ m.spinor for m in fam.members]


def max_rel(got, want):
    return max(np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in zip(got, want))


class TestMembersAt:
    def test_one_mode_family_is_evolve(self):
        fam = full_fiber_family([-2.5], seed=7)
        for tau in (0.6, TAU0, 2.7):
            for got, want in zip(members_at(fam, tau), per_mode_members(fam, tau)):
                assert np.array_equal(got, want)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.sampled_from(SPECTRUM), min_size=2, max_size=5, unique=True),
           st.sampled_from([5.0, 10.0, 30.0]),
           st.floats(min_value=0.2, max_value=2.9),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_batched_members_match_per_mode(self, lams, r_max, tau, seed):
        fam = one_member_per_mode(modes(*lams), dust_scale(r_max), seed)
        assert max_rel(members_at(fam, tau), per_mode_members(fam, tau)) < 1e-9

    def test_distinct_tau0_groups(self):
        ms = (Mode(1.5, 1.0, TAU0), Mode(-2.5, 1.0, 0.9), Mode(3.5, 1.0, TAU0),
              Mode(-1.5, 1.0, 0.9))
        fam = one_member_per_mode(ms, seed=4)
        for tau in (0.5, 2.2):
            assert max_rel(members_at(fam, tau), per_mode_members(fam, tau)) < 1e-9

    @pytest.mark.parametrize("tau0s", [(TAU0,), (TAU0, 1.2)])
    def test_one_sweep_per_distinct_tau0(self, monkeypatch, tau0s):
        calls = []
        original = diracsea.stepper.integrate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        ms = tuple(Mode(lam, 1.0, tau0s[i % len(tau0s)])
                   for i, lam in enumerate(SPECTRUM))
        fam = one_member_per_mode(ms, seed=2)
        monkeypatch.setattr(diracsea.stepper, "integrate", counting)
        local_correlation(fam, 2.1)
        assert sorted(calls) == sorted(tau0s)
        if len(tau0s) == 1:
            calls.clear()
            regularized_kernel(fam, 0.8, 2.4)
            assert calls == [TAU0, TAU0]


class TestLocalCorrelation:
    def test_single_member_block_value(self):
        ms = modes(1.5)
        psi = np.array([0.8, 0.6j])
        fam = build_family(ms, SCALE, [(0, psi)],
                           require_negative_subspace=False)
        f = local_correlation(fam, TAU0)
        want = -(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)
        assert f.matrix[0, 0] == pytest.approx(want, rel=1e-12)

    def test_block_signature_at_most_one_each_sign(self):
        fam = orthonormalize(full_fiber_family([1.5], seed=5))
        for tau in (0.7, 1.9, 2.6):
            f = local_correlation(fam, tau)
            evals = np.linalg.eigvalsh(f.block(0))
            assert np.sum(evals > 1e-12) <= 1
            assert np.sum(evals < -1e-12) <= 1

    def test_cross_mode_blocks_vanish(self):
        fam = orthonormalize(full_fiber_family([1.5, -2.5], seed=2))
        f = local_correlation(fam, 1.3)
        for j, a in enumerate(fam.members):
            for k, b in enumerate(fam.members):
                if a.mode_index != b.mode_index:
                    assert f.matrix[j, k] == 0.0

    @pytest.mark.parametrize("members", ["negative", "two_per_mode"])
    def test_trace_integral_two_routes(self, members):
        fam = orthonormalize(negative_subspace_family(modes(1.5, -2.5), SCALE)) \
            if members == "negative" else full_fiber_family([1.5, -2.5], seed=6)
        route_a = correlation_trace_lifetime_integral(fam, quad_tol=1e-10,
                                                      ode_tol=1e-11)
        route_b = 0.0
        for mem in fam.members:
            sig = signature_operator(fam.modes[mem.mode_index], SCALE,
                                     tol=1e-10, ode_tol=1e-11)
            route_b -= float(np.real(mem.spinor.conj()
                                     @ sig.s.matrix @ mem.spinor))
        assert route_a == pytest.approx(route_b, rel=1e-7)

    @pytest.mark.parametrize("scale,tau0", [(SCALE, TAU0), (SCALE, 1e-4),
                                            (build_six_segment(), 0.0)],
                             ids=["inside", "below_cutoff", "six_segment"])
    @pytest.mark.parametrize("tols,match", [
        ({"ode_tol": 1e-2}, "ode tolerance"),
        *(({"quad_tol": q}, "quadrature tolerance") for q in (-1.0, np.nan, np.inf))],
        ids=["ode_tol", "quad_tol_negative", "quad_tol_nan", "quad_tol_inf"])
    def test_trace_integral_rejects_a_tolerance_out_of_range(self, scale, tau0, tols,
                                                             match):
        fam = build_family((Mode(1.5, 1.0, tau0),), scale, [(0, [1.0, 0.0])],
                           require_negative_subspace=False)
        with pytest.raises(InvalidParameter, match=match):
            correlation_trace_lifetime_integral(fam, **tols)

    @pytest.mark.parametrize("tau0", [0.3, 1.3, 2.7])
    def test_piecewise_trace_integral_matches_signature(self, tau0):
        # Levin segment sums against the signature's SO(3) closed form
        ms = tuple(Mode(lam=l, mass=1.0, tau0=tau0) for l in (1.5, -2.5))
        fam = orthonormalize(negative_subspace_family(ms, FIVE_STEPS))
        want = 0.0
        for mem in fam.members:
            sig = signature_operator(fam.modes[mem.mode_index], FIVE_STEPS)
            want -= float(np.real(mem.spinor.conj() @ sig.s.matrix @ mem.spinor))
        got = correlation_trace_lifetime_integral(fam)
        assert got == pytest.approx(want, rel=1e-12)

    def test_phase_rescaling_invariance(self):
        ms = modes(1.5, 2.5)
        base = orthonormalize(negative_subspace_family(ms, SCALE))
        phases = [np.exp(0.7j), np.exp(-1.1j)]
        rescaled = build_family(
            ms, SCALE,
            [(m.mode_index, c * m.spinor)
             for m, c in zip(base.members, phases)])
        fa = local_correlation(base, 1.7)
        fb = local_correlation(rescaled, 1.7)
        assert spectral_norm(fa.matrix - fb.matrix) < 1e-12


class TestKernel:
    def test_kernel_acts_on_member(self):
        ms = modes(1.5)
        psi = np.array([1.0, 0.0])
        fam = build_family(ms, SCALE, [(0, psi)],
                           require_negative_subspace=False)
        tau = 1.2
        blocks = regularized_kernel(fam, tau, tau)
        psit = members_at(fam, tau)[0]
        indef = np.vdot(psit, SIGMA3 @ psit)
        assert np.allclose(blocks[0] @ psit, -psit * indef, atol=1e-12)

    def test_adjoint_exchange_symmetry_exact(self):
        fam = orthonormalize(full_fiber_family([1.5], seed=9))
        for tx, ty in [(0.6, 2.2), (1.1, 1.1), (2.9, 0.4)]:
            pxy = regularized_kernel(fam, tx, ty)[0]
            pyx = regularized_kernel(fam, ty, tx)[0]
            flipped = SIGMA3 @ pxy.conj().T @ SIGMA3
            assert spectral_norm(flipped - pyx) \
                < 1e-13 * max(1.0, spectral_norm(pyx))

    def test_full_negative_family_reproduces_projector(self):
        ms = modes(1.5)
        fam = orthonormalize(negative_subspace_family(ms, SCALE))
        phi = bump((1.0, 2.0), np.array([1.0, 0.3j]), 1.0)
        via_kernel = kernel_apply(fam, TAU0, phi, 0, tol=1e-11)
        via_projector = fermionic_projector_apply(ms[0], SCALE, phi,
                                                  tol=1e-11).value
        rel = (np.linalg.norm(via_kernel - via_projector)
               / np.linalg.norm(via_projector))
        assert rel < 1e-6

    @pytest.mark.parametrize("index", [-1, 1])
    def test_kernel_apply_mode_index_bounds(self, index):
        fam = negative_subspace_family(modes(1.5), SCALE)
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(InvalidParameter):
            kernel_apply(fam, 1.3, phi, index)

    def test_kernel_apply_for_a_mode_without_members_is_zero(self):
        fam = build_family(modes(1.5, -2.5), SCALE, [(0, np.array([1.0, 0.0]))],
                           require_negative_subspace=False)
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 1.0)
        out = kernel_apply(fam, 1.3, phi, 1)
        assert out.shape == (2,) and not out.any()

    def test_kernel_action_away_from_anchor(self):
        # evaluating at another time transports by the mode propagator
        ms = modes(1.5)
        fam = orthonormalize(negative_subspace_family(ms, SCALE))
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 1.0)
        at_anchor = kernel_apply(fam, TAU0, phi, 0, tol=1e-11)
        at_late = kernel_apply(fam, 2.8, phi, 0, tol=1e-11)
        u = evolve(ms[0], SCALE, TAU0, 2.8, tol=1e-11).u.matrix
        assert np.linalg.norm(u @ at_anchor - at_late) < 1e-8


class TestCausalClassification:
    def test_same_point_timelike(self):
        fam = orthonormalize(full_fiber_family([1.5], seed=1))
        f = local_correlation(fam, 1.4)
        assert causal_classify(f, f) is Classification.TIMELIKE

    def test_commuting_operators_timelike(self):
        # decoupled mode: propagator and correlations stay diagonal
        ms = (Mode(lam=0.0, mass=1.0, tau0=TAU0, physical=False),)
        fam = build_family(ms, SCALE,
                           [(0, np.array([1.0, 0.0])),
                            (0, np.array([0.0, 1.0]))],
                           require_negative_subspace=False)
        fx = local_correlation(fam, 0.9)
        fy = local_correlation(fam, 2.3)
        comm = fx.matrix @ fy.matrix - fy.matrix @ fx.matrix
        assert spectral_norm(comm) < 1e-12
        assert causal_classify(fx, fy) is Classification.TIMELIKE

    def test_classification_matches_quadratic_root_oracle(self):
        # brute-force characteristic polynomial of each 2x2 block product
        fam = orthonormalize(full_fiber_family([1.5], seed=13))
        taus = np.linspace(0.4, 2.9, 6)
        fs = [local_correlation(fam, t, tol=1e-11) for t in taus]
        tol = 1e-8
        seen = set()
        for fx in fs:
            for fy in fs:
                prod = fx.block(0) @ fy.block(0)
                (p, q), (r, s) = prod
                tr = p + s
                # tr^2 - 4 det without its cancellation: at tau_x = tau_y the
                # blocks square to 1 and tr^2 - 4 det is rounding residue
                disc = np.sqrt(complex((p - s) ** 2 + 4.0 * q * r))
                roots = np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])
                scale = max(np.abs(roots))
                nontriv = roots[np.abs(roots) > tol * scale] \
                    if scale > 0 else roots[:0]
                if scale == 0 or nontriv.size == 0:
                    want = Classification.TIMELIKE
                elif np.all(np.abs(nontriv.imag) <= tol * scale):
                    want = Classification.TIMELIKE
                elif (np.all(np.abs(nontriv.imag) > tol * scale)
                      and np.ptp(np.abs(nontriv)) <= tol * scale):
                    want = Classification.SPACELIKE
                else:
                    want = Classification.LIGHTLIKE
                got = causal_classify(fx, fy, tol=tol)
                seen.add(got)
                assert got is want

    def test_spacelike_pairs_exist_for_full_fiber_family(self):
        # rank-2 blocks generically produce complex product spectra
        fam = orthonormalize(full_fiber_family([1.5], seed=13))
        classes = set()
        taus = np.linspace(0.4, 2.9, 6)
        fs = [local_correlation(fam, t, tol=1e-11) for t in taus]
        for fx in fs:
            for fy in fs:
                classes.add(causal_classify(fx, fy))
        assert Classification.SPACELIKE in classes

    def test_product_spectrum_symmetric_in_arguments(self):
        fam = orthonormalize(full_fiber_family([1.5, 2.5], seed=21))
        fx = local_correlation(fam, 0.8)
        fy = local_correlation(fam, 2.1)
        a = list(product_spectrum(fx, fy))
        b = list(product_spectrum(fy, fx))
        tol = 1e-10 * max(1.0, max(np.abs(a)))
        for za in a:  # greedy multiset matching
            j = int(np.argmin([abs(za - zb) for zb in b]))
            assert abs(za - b[j]) < tol
            b.pop(j)

    def test_classification_symmetric(self):
        fam = orthonormalize(full_fiber_family([1.5], seed=4))
        fx = local_correlation(fam, 0.5)
        fy = local_correlation(fam, 2.7)
        assert causal_classify(fx, fy) is causal_classify(fy, fx)

    def test_different_families_rejected(self):
        fam_a = orthonormalize(full_fiber_family([1.5], seed=1))
        fam_b = orthonormalize(full_fiber_family([1.5, 2.5], seed=1))
        fa = local_correlation(fam_a, 1.0)
        fb = local_correlation(fam_b, 1.0)
        with pytest.raises(InvalidParameter):
            causal_classify(fa, fb)


    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        fam = orthonormalize(full_fiber_family([1.5], seed=4))
        fx = local_correlation(fam, 0.5)
        with pytest.raises(InvalidParameter, match="classify tolerance"):
            causal_classify(fx, fx, tol=tol)
