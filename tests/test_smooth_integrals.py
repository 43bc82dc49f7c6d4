"""``model.smooth_integrals``, the rule of every smooth lifetime integral.

The WKB phase, the mass term, the lifetime integral, the window's tails
and a probe's L1 norm are checked against 50-digit mpmath references on
dust at m * r_max 10, 1e3 and 1e5, taking every float input as the exact
binary number it is.  The window's cutoffs must be the rungs the closed
form tails pick; a table scale is checked against ``scipy``'s ``quad_vec``.
The error bound each walk logs must hold against a known value.
"""

import logging
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad_vec

from diracsea.errors import ConvergenceFailure
from diracsea.evolution import accumulated_phase
from diracsea.model import (G_FLOOR, Mode, bump, complex_bump, dust_scale,
                            smooth_integrals, smooth_table_scale)
from diracsea.projector import _mass_term_integral

DIGITS = 50
M_RMAX = [10.0, 1e3, 1e5]
TAU0 = float(np.pi / 2)


def _dust_r(r_max, t):
    return mpmath.mpf(r_max) * (1 - mpmath.cos(t)) / 2


def _mp_integral(fn, a, b):
    """50-digit integral over [a, b], split where the dust integrands turn."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    cuts = [c for c in (mpmath.mpf(10) ** -k for k in range(1, 5))
            if min(a, b) < c < max(a, b)]
    points = sorted([a, *cuts, b], reverse=b < a)
    return mpmath.quad(fn, points)


@pytest.mark.parametrize("m_rmax", M_RMAX)
@pytest.mark.parametrize("end", [3.0, 1e-4])
def test_accumulated_phase_against_mpmath(m_rmax, end):
    mode, scale = Mode(1.5, 1.0, TAU0), dust_scale(m_rmax)
    with mpmath.workdps(DIGITS):
        want = _mp_integral(
            lambda t: mpmath.sqrt(mpmath.mpf(1.5) ** 2 + _dust_r(m_rmax, t) ** 2), TAU0, end)
        assert accumulated_phase(mode, scale, TAU0, end) == pytest.approx(
            float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m_rmax", M_RMAX)
@pytest.mark.parametrize("lam", [1.5, 0.0])
def test_mass_term_against_mpmath(m_rmax, lam):
    # at lam = 0 the integrand m R^2 / f is 0/0 at tau = 0, a Lobatto node
    mode, scale = Mode(lam, 1.0, TAU0, physical=False), dust_scale(m_rmax)
    with mpmath.workdps(DIGITS):
        def integrand(t):
            r = _dust_r(m_rmax, t)
            return r * r / mpmath.sqrt(mpmath.mpf(lam) ** 2 + r * r) if r else r

        want = _mp_integral(integrand, 0.0, np.pi)
        assert _mass_term_integral(mode, scale) == pytest.approx(
            float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m_rmax", M_RMAX)
def test_lifetime_integral_against_mpmath(m_rmax):
    with mpmath.workdps(DIGITS):
        want = _mp_integral(lambda t: _dust_r(m_rmax, t), 0.0, np.pi)
        assert dust_scale(m_rmax).lifetime_integral() == pytest.approx(
            float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("phi,norm", [
    (bump((0.4, 2.9), [1.0, 1.0j], amplitude=1.7), lambda t: 1.7),
    (complex_bump((0.5, 2.5), lambda t: (np.cos(3 * t), 0.5 + 1j * np.sin(t))),
     lambda t: mpmath.sqrt(mpmath.cos(3 * t) ** 2 + 0.25 + mpmath.sin(t) ** 2)),
], ids=["bump", "complex_bump"])
def test_l1_norm_against_mpmath(phi, norm):
    a, b = phi.support
    with mpmath.workdps(DIGITS):
        def integrand(t):
            x = (2 * t - a - b) / (mpmath.mpf(b) - a)
            return mpmath.exp(-1 / (1 - x * x)) * norm(t) if abs(x) < 1 else mpmath.mpf(0)

        want = mpmath.quad(integrand, [a, (a + b) / 2, b])
        assert phi.l1_norm == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m_rmax", M_RMAX)
@pytest.mark.parametrize("tol", [1e-9, 1e-11])
def test_window_takes_the_rungs_of_the_closed_form_tails(m_rmax, tol):
    scale = dust_scale(m_rmax)
    lo, hi, tail = scale.window(tol)
    deltas = 0.05 * 0.25 ** np.arange(60)
    with mpmath.workdps(DIGITS):
        r = mpmath.mpf(m_rmax)
        # the integrals of R = r (1 - cos tau) / 2 over [0, d] and [pi - d, pi]
        below = [r * (d - mpmath.sin(d)) / 2 for d in map(mpmath.mpf, deltas)]
        above = [r * (d + mpmath.sin(d)) / 2 for d in map(mpmath.mpf, deltas)]
        k_lo = next(k for k, x in enumerate(below) if x <= tol / 2)
        k_hi = next(k for k, x in enumerate(above) if x <= tol / 2)
        assert (lo, hi) == (deltas[k_lo], np.pi - deltas[k_hi])
        # the tails over the float intervals [0, lo] and [hi, float pi], from the
        # antiderivative (t - sin t) / 2 of g; the lower one is known to the floor
        # of g's rounding, the upper to 1e-13
        big_g = [(t - mpmath.sin(t)) / 2 for t in map(mpmath.mpf, (lo, hi, np.pi))]
        want = r * (big_g[0] + big_g[2] - big_g[1])
        assert abs(tail - want) <= m_rmax * G_FLOOR * lo + 1e-13 * want


def test_table_scale_against_quad_vec():
    taus = np.linspace(0.0, np.pi, 12)
    scale = smooth_table_scale(taus, np.sin(taus / 2) ** 2, 10.0)
    # quad_vec's Gauss-Kronrod rule is exact on each cubic piece between knots
    want, _ = quad_vec(scale.g, 0.0, np.pi, epsabs=0.0, epsrel=1e-14, points=taus[1:-1])
    assert scale.lifetime_integral() == pytest.approx(10.0 * want, rel=1e-13, abs=0.0)
    deltas = np.array([0.05, 0.0125])
    for got, ends in ((scale.tail_below(deltas), [(0.0, d) for d in deltas]),
                      (scale.tail_above(deltas), [(np.pi - d, np.pi) for d in deltas])):
        want = [10.0 * quad_vec(scale.g, a, b, epsabs=0.0, epsrel=1e-14)[0] for a, b in ends]
        assert got == pytest.approx(want, rel=1e-12, abs=10.0 * G_FLOOR * deltas.max())


class TestRule:
    def test_intervals_in_either_order_in_one_pass(self):
        a, b = np.array([0.0, 2.0, 1.0, 0.3]), np.array([2.0, 0.0, 1.0, 3.1])
        got = smooth_integrals(np.cos, a, b)
        assert got == pytest.approx(np.sin(b) - np.sin(a), rel=1e-14, abs=1e-16)
        assert got[2] == 0.0

    def test_intervals_broadcast(self):
        ends = np.array([0.5, 1.0, 1.5])
        assert smooth_integrals(np.exp, 0.0, ends) == pytest.approx(np.expm1(ends), rel=1e-14)

    @pytest.mark.parametrize("fn,match", [
        (lambda t: np.where(t > 0.0, 1.0, np.nan), "underflow at tau=4.5"),
        (lambda t: (t > 0.123456789).astype(float), "underflow"),
        (lambda t: np.sin(1e4 * t), "2000 panels"),
    ], ids=["nan", "jump", "budget"])
    def test_never_a_truncated_sum(self, fn, match):
        with pytest.raises(ConvergenceFailure, match=match):
            smooth_integrals(fn, 0.0, 10.0)


def _logged_bound(caplog) -> float:
    """The absolute error bound of the last ``smooth_integrals`` walk logged."""
    (line, *_) = [r.getMessage() for r in reversed(caplog.records)
                  if r.getMessage().startswith("smooth_integrals:")]
    return float(re.search(r"absolute error bound (\S+)$", line).group(1))


class TestLoggedBound:
    """The DEBUG line's bound, the sum of the accepted panels' error
    estimates, against integrals whose value is known."""

    @pytest.mark.parametrize("m_rmax", M_RMAX)
    def test_g_against_its_closed_form(self, caplog, m_rmax):
        # dust's g = (1 - cos tau) / 2 integrates to (tau - sin tau) / 2
        caplog.set_level(logging.DEBUG, logger="diracsea.model")
        got = smooth_integrals(dust_scale(m_rmax).g, 0.0, np.pi, G_FLOOR)[0]
        with mpmath.workdps(DIGITS):
            want = (mpmath.mpf(np.pi) - mpmath.sin(mpmath.mpf(np.pi))) / 2
        assert abs(got - want) <= _logged_bound(caplog)

    @pytest.mark.parametrize("m_rmax", M_RMAX)
    @pytest.mark.parametrize("lam", [1.5, 64.5])
    def test_mass_term_against_mpmath(self, caplog, m_rmax, lam):
        caplog.set_level(logging.DEBUG, logger="diracsea.model")
        mode, scale = Mode(lam, 1.0, TAU0), dust_scale(m_rmax)
        got = _mass_term_integral(mode, scale)
        with mpmath.workdps(DIGITS):
            want = _mp_integral(lambda t: _dust_r(m_rmax, t) ** 2 / mpmath.sqrt(
                mpmath.mpf(lam) ** 2 + _dust_r(m_rmax, t) ** 2), 0.0, np.pi)
        assert abs(got - want) <= _logged_bound(caplog)
