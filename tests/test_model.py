import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsea.errors import DomainError, InvalidParameter
from diracsea.model import (
    Hermitian2,
    Mode,
    PiecewiseConstantScale,
    Unitary2,
    bump,
    constant_scale,
    dust_scale,
    is_physical_eigenvalue,
    mollifier,
    smooth_table_scale,
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
        with pytest.raises(InvalidParameter):
            Mode(lam=1.5, mass=1.0, tau0=float(np.pi))
        Mode(lam=1.5, mass=1.0, tau0=0.0)  # scenario anchor

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
        with pytest.raises(InvalidParameter):
            dust_scale(0.0)
        with pytest.raises(InvalidParameter):
            dust_scale(-3.0)

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
        vals = np.array([np.linalg.norm(phi(t)) for t in ts])
        h = (b - a) / (n - 1)
        simpson = h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                           + 2 * vals[2:-1:2].sum())
        assert phi.l1_norm == pytest.approx(simpson, rel=1e-8)

    def test_recompute_l1_norm_consistent(self):
        phi = bump((0.5, 2.5), np.array([1.0, 1.0j]), 0.7)
        assert phi.recompute_l1_norm() == pytest.approx(phi.l1_norm, rel=1e-8)

    def test_direction_normalized(self):
        phi = bump((1.0, 2.0), np.array([2.0, 0.0]), 1.0)
        assert np.linalg.norm(phi(1.5)) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_invalid_support(self):
        with pytest.raises(InvalidParameter):
            bump((0.0, 1.0), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(InvalidParameter):
            bump((1.0, np.pi), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(InvalidParameter):
            bump((2.0, 1.0), np.array([1.0, 0.0]), 1.0)
        with pytest.raises(InvalidParameter):
            bump((1.0, 2.0), np.array([0.0, 0.0]), 1.0)

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

    def test_rejects_spline_leaving_unit_range(self):
        # nonnegative table values whose spline swings to g in [-0.427, 1.0009]
        with pytest.raises(InvalidParameter, match="leaves"):
            smooth_table_scale(np.linspace(0, np.pi, 6), [0, 0, 1, .05, 0, 0], 1.0)


def test_constant_scale_flat():
    sc = constant_scale(3.0)
    assert sc.value(0.1) == 3.0
    assert sc.value(3.0) == 3.0
    assert sc.lifetime_integral() == pytest.approx(3.0 * np.pi)
