import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from diracsea.errors import DomainError, InvalidParameter
from diracsea.model import (
    Hermitian2,
    Mode,
    PiecewiseConstantScale,
    Unitary2,
    bump,
    complex_bump,
    constant_scale,
    dust_scale,
    is_physical_eigenvalue,
    mollifier,
    UNITARITY_TOL,
    polar_unitary,
    _not_a_knot,
    smooth_table_scale,
    unitarity_defect,
)


class TestMode:
    def test_physical_eigenvalues_accepted(self):
        for lam in (1.5, -1.5, 2.5, 7.5, -12.5):
            Mode(lam=lam, mass=1.0, tau0=1.0)

    def test_unphysical_eigenvalues_rejected(self):
        for lam in (0.0, 1.0, 0.5, -0.5, 2.0, 1.4999):
            with pytest.raises(InvalidParameter):
                Mode(lam=lam, mass=1.0, tau0=1.0)

    def test_research_mode_accepts_any_real(self):
        Mode(lam=0.0, mass=1.0, tau0=1.0, physical=False)
        Mode(lam=0.37, mass=2.0, tau0=1.0, physical=False)

    def test_mass_and_tau0_validation(self):
        with pytest.raises(InvalidParameter):
            Mode(lam=1.5, mass=0.0, tau0=1.0)
        with pytest.raises(InvalidParameter):
            Mode(lam=1.5, mass=-1.0, tau0=1.0)
        for tau0 in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidParameter):
                Mode(lam=1.5, mass=1.0, tau0=tau0)
        Mode(lam=1.5, mass=1.0, tau0=0.0)  # scenario anchor
        # pi and beyond are for the scale's domain to judge
        mode = Mode(lam=1.5, mass=1.0, tau0=float(np.pi))
        with pytest.raises(DomainError):
            dust_scale(1.0).check_domain(mode.tau0)
        PiecewiseConstantScale((0.0, 2.0, 5.0), (1.0, 2.0)).check_domain(mode.tau0)

    @given(st.integers(min_value=1, max_value=200),
           st.sampled_from([-1.0, 1.0]))
    def test_half_integer_predicate(self, k, sign):
        assert is_physical_eigenvalue(sign * (k + 0.5))
        assert not is_physical_eigenvalue(sign * float(k))


class TestDustScale:
    def test_maximum_at_crunch(self):
        assert dust_scale(1.0).value(np.pi) == pytest.approx(1.0, abs=1e-15)

    def test_bang_limit_vanishes(self):
        assert dust_scale(1.0).value(1e-8) == pytest.approx(0.0, abs=1e-15)

    def test_half_time_value(self):
        assert dust_scale(5.0).value(np.pi / 2) == pytest.approx(2.5)

    def test_rejects_nonpositive_r_max(self):
        for r in (0.0, -3.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameter, match="r_max"):
                dust_scale(r)
            with pytest.raises(InvalidParameter, match="r_max"):
                constant_scale(r)

    def test_evaluation_is_pure(self):
        sc = dust_scale(7.0)
        vals = [sc.value(1.2345) for _ in range(5)]
        assert all(v == vals[0] for v in vals)

    def test_domain_check(self):
        sc = dust_scale(1.0)
        with pytest.raises(DomainError):
            sc.check_domain(0.0)
        with pytest.raises(DomainError):
            sc.check_domain(np.pi)
        sc.check_domain(1e-9)


class TestPiecewiseScale:
    def test_right_continuity_at_breakpoints(self):
        sc = PiecewiseConstantScale(breakpoints=(0.0, 1.0, 2.0, 3.0),
                                    values=(1.0, 2.0, 3.0))
        assert sc.value(1.0) == 2.0
        assert sc.value(2.0) == 3.0
        assert sc.value(1.0 - 1e-12) == 1.0

    def test_half_open_intervals(self):
        sc = PiecewiseConstantScale(breakpoints=(0.0, 0.5, 1.5),
                                    values=(4.0, 9.0))
        assert sc.value(0.0) == 4.0
        assert sc.value(0.49999) == 4.0
        assert sc.value(0.5) == 9.0

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            PiecewiseConstantScale(breakpoints=(0.1, 1.0), values=(1.0,))
        with pytest.raises(InvalidParameter):
            PiecewiseConstantScale(breakpoints=(0.0, 1.0, 1.0), values=(1.0, 2.0))
        with pytest.raises(InvalidParameter):
            PiecewiseConstantScale(breakpoints=(0.0, 1.0), values=(-1.0,))
        with pytest.raises(InvalidParameter):
            PiecewiseConstantScale(breakpoints=(0.0, 1.0), values=(1.0, 2.0))

    @pytest.mark.parametrize("breakpoints", [(0.0, 1.0, np.inf), (0.0, np.nan, 2.0),
                                             (0.0, 1.0, np.nan)])
    def test_rejects_non_finite_breakpoints(self, breakpoints):
        # an infinite end would reach numpy's SVD as NaN frames
        with pytest.raises(InvalidParameter):
            PiecewiseConstantScale(breakpoints=breakpoints, values=(1.0, 2.0))

    def test_lifetime_integral(self):
        sc = PiecewiseConstantScale(breakpoints=(0.0, 1.0, 3.0),
                                    values=(2.0, 5.0))
        assert sc.lifetime_integral() == pytest.approx(2.0 + 10.0)


class TestBump:
    def test_midpoint_value(self):
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 1.0)
        val = phi(1.5)
        assert val[0] == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert val[1] == 0.0

    def test_vanishes_at_support_endpoints(self):
        phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 1.0)
        assert np.all(phi(1.0) == 0.0)
        assert np.all(phi(2.0) == 0.0)
        assert np.all(phi(0.5) == 0.0)
        assert np.all(phi(2.5) == 0.0)

    def test_l1_norm_against_simpson_reference(self):
        # brute-force composite Simpson at 10^6 points as the oracle
        a, b = 1.0, 2.0
        phi = bump((a, b), np.array([3.0, 4.0]), 2.0)
        n = 1_000_001
        ts = np.linspace(a, b, n)
        vals = np.linalg.norm(phi(ts[:, None]), axis=-1)
        h = (b - a) / (n - 1)
        simpson = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                           + 2 * vals[2:-1:2].sum())
        assert phi.l1_norm == pytest.approx(simpson, rel=1e-8)

    @pytest.mark.parametrize("support", [(0.5, 2.5), (0.2, 0.21)])
    def test_l1_norm_exact_to_rounding(self, support):
        # the mollifier's integral over (-1, 1), to 40 digits
        c = 0.4439938161680794378230489211705526637612
        a, b = support
        exact = 0.5 * (b - a) * c
        phi = bump(support, np.array([1.0, 1.0j]), -0.7)
        assert phi.l1_norm == pytest.approx(0.7 * exact, rel=1e-13, abs=0.0)
        phi = complex_bump(support, lambda t: np.array([np.cos(t), 1j * np.sin(t)]))
        assert phi.l1_norm == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_direction_normalized(self):
        phi = bump((1.0, 2.0), np.array([2.0, 0.0]), 1.0)
        assert np.linalg.norm(phi(1.5)) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_invalid_support(self):
        with pytest.raises(InvalidParameter):
            bump((0.0, 1.0), np.array([1.0, 0.0]), 1.0)
        for support in ((2.0, 1.0), (1.0, 1.0), (1.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(InvalidParameter):
                bump(support, np.array([1.0, 0.0]), 1.0)
        # an end at pi is for the scale's domain to judge
        phi = bump((1.0, np.pi), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(DomainError):
            dust_scale(1.0).check_domain(*phi.support)
        for direction in ((0.0, 0.0), (np.inf, 0.0), (np.nan, 1.0)):
            with pytest.raises(InvalidParameter):
                bump((1.0, 2.0), np.array(direction), 1.0)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitude_rejected(self, amplitude):
        # such a probe would spend a whole panel budget on any image or norm
        with pytest.raises(InvalidParameter, match="amplitude"):
            bump((1.0, 2.0), (1, 0), amplitude=amplitude)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=50)
    def test_mollifier_range(self, x):
        v = mollifier(x)
        assert 0.0 <= v <= np.exp(-1.0)


class TestMatrixTypes:
    def test_unitary_accepts_and_rejects(self):
        Unitary2(np.eye(2))
        theta = 0.3
        Unitary2(np.array([[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]]))
        with pytest.raises(InvalidParameter):
            Unitary2(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-8]]))

    def test_hermitian_accepts_and_rejects(self):
        Hermitian2(np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]]))
        with pytest.raises(InvalidParameter):
            Hermitian2(np.array([[1.0, 1.0], [1.0 + 1e-6j, 1.0]]))

    def test_pauli_components_roundtrip(self):
        from diracsea.model import IDENTITY2, SIGMA1, SIGMA2, SIGMA3

        h = Hermitian2(0.3 * SIGMA1 - 1.2 * SIGMA2 + 0.7 * SIGMA3 + 0.1 * IDENTITY2)
        c0, c1, c2, c3 = h.pauli_components()
        assert (c0, c1, c2, c3) == pytest.approx((0.1, 0.3, -1.2, 0.7))


class TestPolarUnitary:
    @given(st.sampled_from([1, 8]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_is_the_svd_polar_factor(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        p = polar_unitary(a)
        assert p.shape == a.shape
        w, s, vh = np.linalg.svd(a)
        cond = s[:, 0] / s[:, 1]
        defect = np.abs(p.conj().transpose(0, 2, 1) @ p - np.eye(2)).max(axis=(1, 2))
        assert np.all(defect <= 1e-13)
        assert np.all(np.abs(p - w @ vh).max(axis=(1, 2)) <= 1e-13 * cond)

    def test_single_matrix_keeps_its_shape(self):
        a = np.array([[2.0, 1.0j], [0.5, -1.0 + 0.3j]])
        w, _, vh = np.linalg.svd(a)
        assert np.abs(polar_unitary(a) - w @ vh).max() < 1e-14


class TestUnitarityDefect:
    """The closed-form largest |eigenvalue| of the Hermitian U*U - 1."""

    @given(st.sampled_from([1, 8]), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1e-14, 1e-11, 1e-8]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_svd_on_near_unitary_stacks(self, n, seed, eps):
        rng = np.random.default_rng(seed)
        w, _, vh = np.linalg.svd(rng.normal(size=(n, 2, 2))
                                 + 1j * rng.normal(size=(n, 2, 2)))
        u = w @ vh + eps * (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
        m = u.conj().transpose(0, 2, 1) @ u - np.eye(2)
        want = np.linalg.svd(m, compute_uv=False)[:, 0]
        got = unitarity_defect(u)
        assert got.shape == (n,)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps)
        assert abs(unitarity_defect(u[0]) - want[0]) <= 4 * np.finfo(float).eps

    def test_identity_is_exactly_unitary(self):
        assert unitarity_defect(np.eye(2, dtype=complex)) == 0.0
        assert Unitary2(np.eye(2)).defect == 0.0

    def test_unitary2_raises_at_the_tolerance(self):
        Unitary2(np.diag([1.0, 1.0 + 0.4 * UNITARITY_TOL]))
        with pytest.raises(InvalidParameter, match="unitarity defect"):
            Unitary2(np.diag([1.0, 1.0 + 0.6 * UNITARITY_TOL]))


class TestSmoothTable:
    def test_interpolates_and_normalizes(self):
        ts = np.linspace(0, np.pi, 30)
        vals = 2.0 * np.sin(ts / 2) ** 2  # max 2 at pi
        sc = smooth_table_scale(ts, vals, r_max=5.0)
        assert sc.value(np.pi / 2) == pytest.approx(2.5, rel=1e-6)
        assert sc.derivative(np.pi / 2) == pytest.approx(2.5, rel=1e-4)

    def test_rejects_bad_tables(self):
        with pytest.raises(InvalidParameter):
            smooth_table_scale([0, 1, 2], [1, 2, 3], 1.0)
        with pytest.raises(InvalidParameter):
            smooth_table_scale([0, 1, 1, 2], [1, 2, 3, 4], 1.0)
        with pytest.raises(InvalidParameter):
            smooth_table_scale([0, 1, 2, 3], [-1, 2, 3, 4], 1.0)

    @given(st.integers(4, 120), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_cubic_is_scipys_not_a_knot_spline(self, n, seed):
        # tables of n points in [0, pi], widths within a factor 5, each end
        # within pi/4 of the lifetime's: past the table both splines extrapolate,
        # and their rounding grows like the cube of the distance over the span
        rng = np.random.default_rng(seed)
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 5.0, n - 1))])
        a, b = rng.uniform(0.0, np.pi / 4, 2)
        x = a + x * (np.pi - a - b) / x[-1]
        y = rng.uniform(0.0, 1.0, n)
        g, dg = _not_a_knot(x, y)
        oracle = CubicSpline(x, y)
        inside, whole = np.linspace(x[0], x[-1], 1001), np.linspace(0.0, np.pi, 1001)
        for t, tol in ((inside, 1e-14), (whole, 1e-13)):
            want = oracle(t)
            assert np.abs(g(t) - want).max() <= tol * np.abs(want).max()
        want = oracle(whole, 1)
        assert np.abs(dg(whole) - want).max() <= 1e-13 * np.abs(want).max()
        # a scalar takes the same path as an array
        assert g(float(whole[500])) == g(whole)[500] and dg(float(whole[7])) == dg(whole)[7]

    def test_rejects_spline_leaving_unit_range(self):
        # nonnegative table values whose spline swings to g in [-0.427, 1.0009]
        with pytest.raises(InvalidParameter, match="leaves"):
            smooth_table_scale(np.linspace(0, np.pi, 6), [0, 0, 1, .05, 0, 0], 1.0)


def test_constant_scale_flat():
    sc = constant_scale(3.0)
    assert sc.value(0.1) == 3.0
    assert sc.value(3.0) == 3.0
    assert sc.lifetime_integral() == pytest.approx(3.0 * np.pi)
