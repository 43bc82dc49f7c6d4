"""Domain types shared by every other module.

A *mode* is one spatial harmonic of the Dirac field in a closed FRW
universe; after separation the dynamics lives in a two-dimensional complex
fiber and everything downstream is 2x2 linear algebra driven by the
conformal scale function R(tau).

All matrix norms in this package are spectral norms (largest singular
value).  All types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, InvalidParameter

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12

#: Default adaptive-integration tolerance (local error per unit tau).
DEFAULT_ODE_TOL = 1e-10
#: Default quadrature tail tolerance for integrals over the full lifetime.
DEFAULT_QUAD_TOL = 1e-9
#: Default relative eigenvalue-gap threshold for spectral projections.
DEFAULT_GAP_TOL = 1e-6
#: How far a table scale's spline may stray outside [0, 1].  A table of a
#: valid profile strays by its interpolation error (3.8e-6 for 12 points of
#: sin^2(tau / 2), 4.7e-5 for 8), so the bound leaves room for that.
SPLINE_RANGE_TOL = 1e-4


def spectral_norm(a) -> float:
    return float(np.linalg.norm(a, 2))


def unitarity_defect(u) -> float:
    """Spectral norm of U*U - 1."""
    u = np.asarray(u)
    return spectral_norm(u.conj().T @ u - np.eye(u.shape[0]))


def polar_unitary(a):
    """Closest unitary (polar factor) of an invertible matrix."""
    w, _, vh = np.linalg.svd(a)
    return w @ vh


def is_physical_eigenvalue(lam: float, tol: float = 1e-12) -> bool:
    """Spatial Dirac eigenvalues on the 3-sphere: half-integers with |lam| >= 3/2."""
    if abs(lam) < 1.5 - tol:
        return False
    twice = 2.0 * lam
    return abs(twice - round(twice)) <= tol and round(twice) % 2 != 0


@dataclass(frozen=True)
class Mode:
    """One separated Dirac mode: spatial eigenvalue, rest mass, reference time.

    ``physical=True`` (default) restricts ``lam`` to the 3-sphere spectrum
    {+-3/2, +-5/2, ...}; research mode accepts any real value, including 0
    (useful because the dynamics decouples there).  ``tau0 = 0`` is allowed
    so piecewise-constant scenarios can anchor at the bang.
    """

    lam: float
    mass: float
    tau0: float
    physical: bool = True

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise InvalidParameter("lam must be finite")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise InvalidParameter(f"mass must be > 0, got {self.mass}")
        if not (0.0 <= self.tau0 < np.pi):
            raise InvalidParameter(f"tau0 must lie in [0, pi), got {self.tau0}")
        if self.physical and not is_physical_eigenvalue(self.lam):
            raise InvalidParameter(
                f"lam={self.lam} is not a half-integer with |lam| >= 3/2; "
                "pass physical=False for research values"
            )


class ScaleFunction:
    """Conformal scale factor R(tau) on (0, tau_end).

    Two concrete kinds: ``SmoothScale`` (R = r_max * g with g in C^2) and
    ``PiecewiseConstantScale``.  ``tau_end`` is pi for cosmological models;
    rotation-count scenarios carry their own total duration.
    """

    tau_end: float
    r_max: float
    is_piecewise = False

    def value(self, tau: float) -> float:
        raise NotImplementedError

    def pieces(self, lo: float, hi: float):
        """(a, b, r) stretches of [lo, hi]: R = r on each, or r = None where R varies."""
        return [(lo, hi, None)]

    def check_domain(self, tau: float):
        if self.is_piecewise:
            ok = 0.0 <= tau <= self.tau_end
        else:
            ok = 0.0 < tau < self.tau_end
        if not ok:
            raise DomainError(
                f"tau={tau} outside the scale-function domain "
                f"{'[0, %g]' % self.tau_end if self.is_piecewise else '(0, %g)' % self.tau_end}"
            )

    def lifetime_integral(self) -> float:
        """integral of R over the whole domain (a priori operator-norm scale)."""
        raise NotImplementedError

    def tail_below(self, delta: float) -> float:
        """integral of R over (0, delta)."""
        raise NotImplementedError

    def tail_above(self, delta: float) -> float:
        """integral of R over (tau_end - delta, tau_end)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SmoothScale(ScaleFunction):
    """R(tau) = r_max * g(tau) with g in C^2, 0 < g <= 1 on (0, pi)."""

    g: Callable[[float], float]
    r_max: float
    dg: Callable[[float], float] | None = None
    label: str = "smooth"
    tau_end: float = field(default=float(np.pi))
    is_piecewise = False

    def __post_init__(self):
        if not (np.isfinite(self.r_max) and self.r_max > 0):
            raise InvalidParameter(f"r_max must be > 0, got {self.r_max}")

    def value(self, tau: float) -> float:
        return self.r_max * self.g(tau)

    def derivative(self, tau: float) -> float:
        if self.dg is None:
            raise InvalidParameter(f"scale '{self.label}' carries no derivative")
        return self.r_max * self.dg(tau)

    def lifetime_integral(self) -> float:
        val, _ = quad(self.g, 0.0, self.tau_end, limit=200)
        return self.r_max * val

    def tail_below(self, delta: float) -> float:
        lo, _ = quad(self.g, 0.0, delta, limit=50)
        return self.r_max * lo

    def tail_above(self, delta: float) -> float:
        hi, _ = quad(self.g, self.tau_end - delta, self.tau_end, limit=50)
        return self.r_max * hi


@dataclass(frozen=True)
class PiecewiseConstantScale(ScaleFunction):
    """Piecewise constant R with breakpoints 0 = t_0 < t_1 < ... < t_N.

    Values are taken on half-open intervals [t_{n-1}, t_n); evaluation is
    right-continuous at every breakpoint.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals) + 1:
            raise InvalidParameter("need exactly one more breakpoint than values")
        if len(vals) == 0:
            raise InvalidParameter("need at least one segment")
        if bps[0] != 0.0:
            raise InvalidParameter("first breakpoint must be 0")
        if not (all(b1 < b2 for b1, b2 in zip(bps, bps[1:])) and bps[-1] < np.inf):
            raise InvalidParameter("breakpoints must be strictly increasing and finite")
        if any(not (np.isfinite(v) and v > 0) for v in vals):
            raise InvalidParameter("segment values must be strictly positive")

    is_piecewise = True

    @property
    def tau_end(self) -> float:
        return self.breakpoints[-1]

    @property
    def r_max(self) -> float:
        return max(self.values)

    def segment_index(self, tau: float) -> int:
        idx = int(np.searchsorted(self.breakpoints, tau, side="right")) - 1
        return min(max(idx, 0), len(self.values) - 1)

    def value(self, tau: float) -> float:
        return self.values[self.segment_index(tau)]

    def pieces(self, lo: float, hi: float):
        """[lo, hi] cut at the breakpoints, with the segment value r on each piece."""
        cuts = [lo] + [b for b in self.breakpoints if lo < b < hi] + [hi]
        return [(a, b, self.value(0.5 * (a + b))) for a, b in zip(cuts, cuts[1:])]

    def lifetime_integral(self) -> float:
        widths = np.diff(self.breakpoints)
        return float(np.dot(widths, self.values))

    def tail_below(self, delta: float) -> float:
        return delta * self.values[0]

    def tail_above(self, delta: float) -> float:
        return delta * self.values[-1]


def check_mode_scale(mode: Mode, scale: ScaleFunction, *taus: float):
    """DomainError unless tau0 and ``taus`` lie in the scale's domain.

    Every entry point taking a (mode, scale) pair calls this, so none
    extrapolates the scale function.
    """
    for tau in (mode.tau0, *taus):
        scale.check_domain(tau)


def dust_scale(r_max: float) -> SmoothScale:
    """Dust-matter scale function, normalized so that max R = r_max.

    g(tau) = (1 - cos tau) / 2 grows from the bang (g -> 0) to g(pi) = 1.
    The 1/2 keeps the convention max g = 1, so every bound stated in terms
    of m * r_max uses the actual maximum of R.
    """
    if not (np.isfinite(r_max) and r_max > 0):
        raise InvalidParameter(f"r_max must be > 0, got {r_max}")
    return SmoothScale(
        g=lambda t: 0.5 * (1.0 - np.cos(t)),
        dg=lambda t: 0.5 * np.sin(t),
        r_max=float(r_max),
        label="dust",
    )


def constant_scale(r: float) -> SmoothScale:
    """Constant R; the frequency is time independent and WKB is exact."""
    if not (np.isfinite(r) and r > 0):
        raise InvalidParameter(f"r must be > 0, got {r}")
    return SmoothScale(
        g=lambda t: 1.0,
        dg=lambda t: 0.0,
        r_max=float(r),
        label="constant",
    )


def smooth_table_scale(taus: Sequence[float], values: Sequence[float],
                       r_max: float) -> SmoothScale:
    """C^2 scale function interpolated from a (tau, g) table.

    The table is normalized so max g = 1 before scaling by ``r_max``.
    Raises ``InvalidParameter`` when the spline, sampled densely over
    [0, pi], dips below 0 or exceeds 1 by more than ``SPLINE_RANGE_TOL``.
    """
    from scipy.interpolate import CubicSpline

    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.ndim != 1 or taus.size < 4 or taus.size != values.size:
        raise InvalidParameter("need matching 1-d tables with >= 4 entries")
    if np.any(np.diff(taus) <= 0):
        raise InvalidParameter("table abscissae must be strictly increasing")
    if taus[0] < 0.0 or taus[-1] > np.pi:
        raise InvalidParameter("table abscissae must lie in [0, pi]")
    if np.any(values < 0.0) or values.max() <= 0.0:
        raise InvalidParameter("table values must be nonnegative with positive max")
    spline = CubicSpline(taus, values / values.max())
    # The spline may undershoot below 0 or overshoot 1 between table points
    # (and beyond the table, where it extrapolates); R >= 0 underlies the
    # tail bound and max g = 1 the meaning of r_max, so sample it densely.
    dense = np.concatenate([np.linspace(0.0, np.pi, 2049),
                            (taus[:-1, None] + np.diff(taus)[:, None]
                             * np.linspace(0.0, 1.0, 33)).ravel()])
    g = spline(dense)
    if g.min() < -SPLINE_RANGE_TOL or g.max() > 1.0 + SPLINE_RANGE_TOL:
        raise InvalidParameter(
            f"interpolated scale function leaves [0, 1]: g ranges over "
            f"[{g.min():.4g}, {g.max():.4g}]; refine or smooth the table")
    return SmoothScale(
        g=lambda t: float(spline(t)),
        dg=lambda t: float(spline(t, 1)),
        r_max=float(r_max),
        label="smooth_table",
    )


@dataclass(frozen=True)
class Unitary2:
    """A validated 2x2 unitary matrix; ``defect`` is its ``unitarity_defect``."""

    entries: np.ndarray
    defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidParameter(f"expected a 2x2 matrix, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        defect = unitarity_defect(m)
        if defect > UNITARITY_TOL:
            raise InvalidParameter(f"unitarity defect {defect:.3e} > {UNITARITY_TOL}")
        object.__setattr__(self, "defect", defect)

    @property
    def matrix(self) -> np.ndarray:
        return self.entries


@dataclass(frozen=True)
class Hermitian2:
    """A validated 2x2 Hermitian matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidParameter(f"expected a 2x2 matrix, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        defect = spectral_norm(m - m.conj().T)
        if defect > HERMITICITY_TOL * max(1.0, spectral_norm(m)):
            raise InvalidParameter(f"hermiticity defect {defect:.3e} too large")

    @property
    def matrix(self) -> np.ndarray:
        return self.entries

    def pauli_components(self):
        """(c0, c1, c2, c3) with M = c0*1 + sum_a c_a sigma_a; all real."""
        m = self.entries
        c0 = 0.5 * np.trace(m).real
        return (
            c0,
            0.5 * np.trace(SIGMA1 @ m).real,
            0.5 * np.trace(SIGMA2 @ m).real,
            0.5 * np.trace(SIGMA3 @ m).real,
        )


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported C^2-valued probe on (0, pi).

    ``amplitude`` maps tau to a complex 2-vector and vanishes outside
    [a, b]; ``l1_norm`` caches the integral of its pointwise norm.
    """

    support: tuple
    amplitude: Callable[[float], np.ndarray]
    l1_norm: float

    def __post_init__(self):
        a, b = self.support
        if not (0.0 < a < b < np.pi):
            raise InvalidParameter(f"support ({a}, {b}) must satisfy 0 < a < b < pi")
        if not (np.isfinite(self.l1_norm) and self.l1_norm >= 0):
            raise InvalidParameter("l1_norm must be finite and nonnegative")

    def __call__(self, tau: float) -> np.ndarray:
        a, b = self.support
        if tau <= a or tau >= b:
            return np.zeros(2, dtype=complex)
        return np.asarray(self.amplitude(tau), dtype=complex)

    def recompute_l1_norm(self) -> float:
        a, b = self.support
        val, _ = quad(lambda t: float(np.linalg.norm(self(t))), a, b, limit=200)
        return val


def mollifier(x: float) -> float:
    """The standard bump profile exp(-1/(1-x^2)) on (-1, 1), zero outside."""
    if abs(x) >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (1.0 - x * x)))


def bump(support: tuple, direction, amplitude: float = 1.0) -> TestFunction:
    """Mollifier bump along a fixed (normalized) spinor direction.

    The profile is ``amplitude * exp(-1/(1-x^2))`` with x rescaled so the
    bump fills ``support``; the L1 norm is computed by adaptive quadrature.
    """
    a, b = float(support[0]), float(support[1])
    if not (0.0 < a < b < np.pi):
        raise InvalidParameter(f"support ({a}, {b}) must satisfy 0 < a < b < pi")
    d = np.asarray(direction, dtype=complex)
    if d.shape != (2,) or not np.linalg.norm(d) > 0:
        raise InvalidParameter("direction must be a nonzero complex 2-vector")
    d = d / np.linalg.norm(d)
    amp = float(amplitude)

    def profile(tau: float) -> np.ndarray:
        x = (2.0 * tau - a - b) / (b - a)
        return amp * mollifier(x) * d

    scalar_mass, _ = quad(lambda t: mollifier((2.0 * t - a - b) / (b - a)),
                          a, b, limit=200)
    return TestFunction(support=(a, b), amplitude=profile,
                        l1_norm=abs(amp) * scalar_mass)


def complex_bump(support: tuple, vector_of_tau: Callable[[float], np.ndarray]) -> TestFunction:
    """Probe with an arbitrary smooth spinor-valued profile times the mollifier."""
    a, b = float(support[0]), float(support[1])
    if not (0.0 < a < b < np.pi):
        raise InvalidParameter(f"support ({a}, {b}) must satisfy 0 < a < b < pi")

    def profile(tau: float) -> np.ndarray:
        x = (2.0 * tau - a - b) / (b - a)
        w = mollifier(x)
        if w == 0.0:
            return np.zeros(2, dtype=complex)
        return w * np.asarray(vector_of_tau(tau), dtype=complex)

    l1, _ = quad(lambda t: float(np.linalg.norm(profile(t))), a, b, limit=200)
    return TestFunction(support=(a, b), amplitude=profile, l1_norm=l1)
