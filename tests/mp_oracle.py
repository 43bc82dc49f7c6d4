"""40-digit reference propagators on piecewise-constant scales (mpmath).

On a segment of constant R = r the mode propagator is the segment
exponential exp(-i H dt) = cos(f dt) 1 - i sin(f dt) H / f, with
H = m r sigma3 - lam sigma1 and f = sqrt(lam^2 + (m r)^2).  Here it is
evaluated in 40-digit arithmetic, taking every float input (breakpoints,
values, times) as the exact binary number it is, so the only error left
in a float64 result is the float64 route's own.
"""

import mpmath

DIGITS = 40


def _segment(lam, mass, r, dt):
    m_r = mpmath.mpf(mass) * mpmath.mpf(r)
    f = mpmath.sqrt(mpmath.mpf(lam) ** 2 + m_r ** 2)
    c, s = mpmath.cos(f * dt), mpmath.sin(f * dt) / f
    return mpmath.matrix([[c - 1j * s * m_r, 1j * s * lam],
                          [1j * s * lam, c + 1j * s * m_r]])


def _from_zero(mode, scale, tau):
    """U(tau <- 0) as the product of the segment exponentials."""
    tau = mpmath.mpf(tau)
    u = mpmath.eye(2)
    for a, b, r in zip(scale.breakpoints, scale.breakpoints[1:], scale.values):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if tau <= a:
            break
        u = _segment(mode.lam, mode.mass, r, min(tau, b) - a) * u
    return u


def propagator(mode, scale, tau_from, tau):
    """U(tau <- tau_from) for one mode, as a 2x2 ``mpmath.matrix``."""
    with mpmath.workdps(DIGITS):
        return _from_zero(mode, scale, tau) * _from_zero(mode, scale, tau_from).H


def to_complex(u):
    """A 2x2 ``mpmath.matrix`` as nested lists of Python complex numbers."""
    return [[complex(u[i, j]) for j in range(2)] for i in range(2)]


def v_components(u):
    """(v1, v2, v3) = 1/2 Tr(sigma_alpha U^dagger sigma3 U) as Python floats."""
    with mpmath.workdps(DIGITS):
        a, b, c, d = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
        off = mpmath.conj(a) * b - mpmath.conj(c) * d
        diag = abs(a) ** 2 - abs(c) ** 2 - abs(b) ** 2 + abs(d) ** 2
        return float(off.real), float(-off.imag), float(diag / 2)
