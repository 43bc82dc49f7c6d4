"""Domain types shared by every other module.

A *mode* is one spatial harmonic of the Dirac field in a closed FRW
universe; after separation the dynamics lives in a two-dimensional complex
fiber and everything downstream is 2x2 linear algebra driven by the
conformal scale function R(tau).

All matrix norms in this package are spectral norms (largest singular
value).  All types are immutable after construction.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceFailure, DomainError, InvalidParameter

log = logging.getLogger(__name__)

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
#: Default relative tolerance of ``cfs.causal_classify``.
DEFAULT_CLASSIFY_TOL = 1e-8
#: The open range an ode tolerance must lie in.
MIN_ODE_TOL, MAX_ODE_TOL = 1e-14, 1e-4
#: How far a table scale's spline may stray outside [0, 1].  A table of a
#: valid profile strays by its interpolation error (3.8e-6 for 12 points of
#: sin^2(tau / 2), 4.7e-5 for 8), so the bound leaves room for that.
SPLINE_RANGE_TOL = 1e-4


#: Chebyshev-Lobatto nodes per panel.
NODES = 12
#: Widest initial panel.
MAX_PANEL = 0.25
#: Panels one ``panel_walk`` may test before giving up.
MAX_PANELS = 2000
#: ``smooth_integrals``' tol, and the absolute rounding of a scale's g (max g = 1):
#: the walk's floor for g's integrals and, times r_max max|F/R|, for Levin's.
SMOOTH_TOL, G_FLOOR = 1e-13, float(np.finfo(float).eps)


def finite_real(value, what: str, low: float = -math.inf, closed: bool = False) -> float:
    """``value`` as a float: a finite real number > ``low`` (>= if ``closed``), else
    InvalidParameter, "<what> must be finite and > <low>, got <value>".  No numpy
    call: a value that is no real number fails the comparison made anyway."""
    try:
        if (low <= value if closed else low < value) and value < math.inf:
            return float(value)
    except (TypeError, ValueError):  # no real number
        pass
    bound = "" if low == -math.inf else f" and {'>=' if closed else '>'} {low:g}"
    raise InvalidParameter(f"{what} must be finite{bound}, got {value}")


def integer_index(value, what: str, start: int = 0, stop: int | None = None) -> int:
    """``value``, an integer (no float, 1.0 too) in [start, stop) or >= start, as an int;
    InvalidParameter otherwise."""
    try:
        if start <= (i := operator.index(value)) and (stop is None or i < stop):
            return i
    except TypeError:
        pass
    span = f">= {start}" if stop is None else f"in [{start}, {stop})"
    raise InvalidParameter(f"{what} must be an integer {span}, got {value!r}")


def check_tolerances(ode_tol=None, quad_tol=None, gap_tol=None, classify_tol=None):
    """InvalidParameter for the first given tolerance out of range, in the order ode (a
    number in (MIN_ODE_TOL, MAX_ODE_TOL)), quadrature, gap, classify (``finite_real`` > 0)."""
    try:
        ode_ok = ode_tol is None or MIN_ODE_TOL < ode_tol < MAX_ODE_TOL
    except (TypeError, ValueError):  # no real number
        ode_ok = False
    if not ode_ok:
        raise InvalidParameter(f"ode tolerance {ode_tol} outside ({MIN_ODE_TOL}, {MAX_ODE_TOL})")
    for name, tol in (("quadrature tolerance", quad_tol), ("gap_tol", gap_tol),
                      ("classify tolerance", classify_tol)):
        if tol is not None:
            finite_real(tol, name, 0)


def frozen_array(value, shape, what: str, dtype=complex) -> np.ndarray:
    """A read-only copy of ``value``, finite and of ``shape`` (a None entry takes
    any length; ``shape=None`` any square matrix, which a 0-d value is not);
    InvalidParameter otherwise, a value numpy cannot read included."""
    try:
        a = np.array(value, dtype=dtype, order="C")
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"{what} is not a numeric array: {exc}") from None
    if not ((a.ndim == 2 and a.shape[0] == a.shape[1]) if shape is None else (
            a.ndim == len(shape) and all(n in (None, k) for n, k in zip(shape, a.shape)))):
        raise InvalidParameter(f"{what} must have shape {shape or '(n, n)'}, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidParameter(f"{what} must be finite")
    a.setflags(write=False)
    return a


def check_hermitian(m, what: str):
    """InvalidParameter unless ||m - m^dagger|| <= HERMITICITY_TOL max(1, ||m||)."""
    defect = spectral_norm(m - m.conj().T)
    if defect > HERMITICITY_TOL * max(1.0, spectral_norm(m)):
        raise InvalidParameter(f"{what} hermiticity defect {defect:.3e} too large")


def _chebyshev(n: int):
    """Lobatto nodes cos(pi k / n) (descending), differentiation matrix, CC weights, tail."""
    k = np.arange(n + 1)
    x = np.cos(np.pi * k / n)
    c = np.where((k == 0) | (k == n), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    theta = np.pi * k[1:-1] / n
    v = np.ones(n - 1)
    for j in range(1, n // 2 + 1):
        b = 1.0 if 2 * j == n else 2.0
        v -= b * np.cos(2 * j * theta) / (4 * j * j - 1)
    w = np.empty(n + 1)
    w[0] = w[-1] = 1.0 / (n * n - 1) if n % 2 == 0 else 1.0 / (n * n)
    w[1:-1] = 2.0 * v / n
    tail = np.cos(np.pi * np.outer([n - 1, n], k) / n) * 2.0 / (n * np.abs(c))
    return x, d, w, tail


_X, _D, _W, _TAIL = _chebyshev(NODES - 1)


def chebyshev_tail(vals):
    """|a_(n-1)| + |a_n| of values (..., NODES, k) at the Lobatto nodes, (..., k):
    the last two of a_k = (2/n) sum'' f_j T_k(x_j), their DCT-I (n = NODES - 1)."""
    return np.abs(_TAIL @ vals).sum(axis=-2)


def panel_walk(panel, a, b, group, tol: float, what: str):
    """Adaptive quadrature over the directed intervals [a[i], b[i]]: each panel
    is evaluated once and passes by its own error estimate.

    Each interval is cut from a[i] into equal panels at most ``MAX_PANEL``
    wide, all refined together a round at a time.  ``panel(lo, hi, seed)``
    takes the ascending ends of a round's panels and each one's interval and
    returns (parts, err, bounds): per-panel arrays, err (n, k) the estimates,
    and a function of each panel's (size, floor), called in the first round
    only.  A panel passes when err <= (tol S + floor) width in every component,
    S and floor the largest of the first round in its interval's ``group`` (a
    NaN fails).  A failed panel is cut into the k equal panels that would pass
    if its miss, err / bar, shrank like width^(NODES - 1) as a resolved one's
    does, or is halved if that miss is not finite.  ``ConvergenceFailure`` past
    ``MAX_PANELS`` panels tested or for a failing panel too narrow to split:
    never a truncated sum.  A DEBUG line per walk: panels tested (evaluated)
    and accepted, and the largest component's sum of accepted err, a bound on
    each sum's absolute error.  Returns (seed, parts) of the accepted panels
    in interval order, each interval's from a[i].
    """
    a, b = (np.ravel(x).astype(float) for x in np.broadcast_arrays(a, b))
    group, sign = np.broadcast_to(group, a.shape), np.where(b < a, -1.0, 1.0)
    x, y, seed = a, b, np.arange(a.size)  # cut each [x, y] into count equal panels
    count, top, done, tested = np.ceil(np.abs(b - a) / MAX_PANEL).astype(int), None, [], 0
    while True:
        if (tested := tested + count.sum()) > MAX_PANELS:
            raise ConvergenceFailure(f"{what} used {MAX_PANELS} panels before covering ["
                                     f"{min(a.min(), b.min()):.6g}, {max(a.max(), b.max()):.6g}]")
        i = np.repeat(np.arange(count.size), count)  # panel j of [x[i], y[i]], as linspace
        j, step, seed = np.arange(i.size) - np.searchsorted(i, i), (y - x)[i] / count[i], seed[i]
        x, y = x[i] + j * step, np.where(j + 1 == count[i], y[i], x[i] + (j + 1) * step)
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        parts, err, bounds = panel(lo, hi, seed)
        if top is None:  # a NaN size is ignored here and fails its panel below
            np.fmax.at(top := np.zeros((group.max(initial=0) + 1, 2)), group[seed], bounds())
        s, floor = top[group[seed]].T
        ok = np.all(err.T <= (bar := (tol * s + floor) * (hi - lo)), axis=0)
        done.append((seed[ok], lo[ok], err[ok], [p[ok] for p in parts]))
        if ok.all():
            break
        if (narrow := ~ok & (hi - lo < 1e-12 * np.maximum(np.abs(lo), 1.0))).any():
            raise ConvergenceFailure(
                f"{what} panel underflow at tau={0.5 * (lo + hi)[narrow][0]:.6g}")
        with np.errstate(divide="ignore", invalid="ignore"):
            miss = (err[~ok].T / bar[~ok]).max(axis=0) ** (1.0 / (NODES - 1))
        count = np.where(np.isfinite(miss), np.ceil(np.minimum(miss, MAX_PANELS)), 2).astype(int)
        x, y, seed = lo[~ok], hi[~ok], seed[~ok]
    seeds, los, errs, parts = zip(*done)
    seed, lo = np.concatenate(seeds), np.concatenate(los)
    order = np.lexsort((sign[seed] * lo, seed))
    log.debug("%s: %d intervals, %d panels tested, %d accepted, absolute error bound %.3g",
              what, a.size, tested, order.size, np.concatenate(errs)[order].sum(axis=0).max())
    return seed[order], [np.concatenate(p)[order] for p in zip(*parts)]


def smooth_integrals(fn, a, b, floor: float = 0.0) -> np.ndarray:
    """integral of fn over each [a[i], b[i]] (either order), in one ``panel_walk``.

    ``fn`` maps a flat array of times to its real values, finite at the Lobatto
    nodes (ends included), whose Clenshaw-Curtis rule is a panel; tol ``SMOOTH_TOL``.
    A panel's error estimate is its width times ``chebyshev_tail`` of its values.
    """
    a, b = (np.ravel(x).astype(float) for x in np.broadcast_arrays(a, b))

    def panel(lo, hi, _):
        h = 0.5 * (hi - lo)
        vals = np.reshape(fn(((lo + h)[:, None] + h[:, None] * _X).ravel()), (-1, NODES))
        return [h * (vals @ _W)], 2 * h[:, None] * chebyshev_tail(vals[..., None]), lambda: (
            np.stack([np.abs(vals).max(axis=1), np.full(lo.size, floor)], axis=1))

    seed, (parts,) = panel_walk(panel, a, b, np.arange(a.size), SMOOTH_TOL, "smooth_integrals")
    return np.sign(b - a) * np.bincount(seed, parts, a.size)


def spectral_norm(a):
    """Largest singular value of a matrix, or of each matrix in a stack."""
    return np.linalg.norm(a, 2, axis=(-2, -1))


def unitarity_defect(u):
    """Spectral norm of the Hermitian M = U*U - 1, of a 2x2 U or of each in a
    stack: its largest |eigenvalue|, |tr M| / 2 + sqrt(((M00 - M11) / 2)^2 + |M01|^2)."""
    m = np.swapaxes(np.conj(u), -1, -2) @ u
    d0, d1 = m[..., 0, 0].real - 1.0, m[..., 1, 1].real - 1.0
    return 0.5 * np.abs(d0 + d1) + np.hypot(0.5 * (d0 - d1), np.abs(m[..., 0, 1]))


def polar_unitary(a):
    """Closest unitary (polar factor) of an invertible 2x2 matrix or stack of them.

    For A = W diag(s1, s2) V^dagger, A + e^{i arg det A} adj(A)^dagger =
    (s1 + s2) W V^dagger, with (s1 + s2)^2 = ||A||_F^2 + 2 |det A|.
    """
    a = np.asarray(a)
    out = []
    for p, q, r, s in a.reshape(-1, 4).tolist():
        det = p * s - q * r
        phase = det / abs(det)
        norm = math.sqrt((p.conjugate() * p + q.conjugate() * q + r.conjugate() * r
                          + s.conjugate() * s).real + 2.0 * abs(det))
        out.append(((p + phase * s.conjugate()) / norm,
                    (q - phase * r.conjugate()) / norm,
                    (r - phase * q.conjugate()) / norm,
                    (s + phase * p.conjugate()) / norm))
    return np.array(out).reshape(a.shape)


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
    (useful because the dynamics decouples there).  ``tau0 >= 0`` is all a
    mode asks: the scale it meets says where tau0 may lie (``check_domain``).
    """

    lam: float
    mass: float
    tau0: float
    physical: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lam", finite_real(self.lam, "lam"))
        object.__setattr__(self, "mass", finite_real(self.mass, "mass", 0))
        object.__setattr__(self, "tau0", finite_real(self.tau0, "tau0", 0, closed=True))
        if self.physical and not is_physical_eigenvalue(self.lam):
            raise InvalidParameter(
                f"lam={self.lam} is not a half-integer with |lam| >= 3/2; "
                "pass physical=False for research values"
            )


class ScaleFunction:
    """Conformal scale factor R(tau) on (0, tau_end).

    Two concrete kinds: ``SmoothScale`` (R = r_max * g with g in C^2) and
    ``PiecewiseConstantScale``.  ``tau_end`` is pi for cosmological models;
    rotation-count scenarios carry their own total duration.  The scale owns
    where tau may go: ``check_domain`` for tau0, stops and probe supports,
    ``window`` for every integral over the lifetime.
    """

    tau_end: float
    r_max: float
    is_piecewise = False

    def value(self, tau):
        """R at tau, elementwise for an array of times."""
        raise NotImplementedError

    def pieces(self, lo: float, hi: float):
        """(a, b, r) stretches of [lo, hi]: R = r on each, or r = None where R varies."""
        return [(lo, hi, None)]

    def check_domain(self, *taus: float) -> list:
        """The taus as floats.  DomainError unless each lies in the closed
        [0, tau_end] of a piecewise scale or the open (0, tau_end) of a smooth
        one; InvalidParameter for a tau that is no real number."""
        closed, end, out = self.is_piecewise, self.tau_end, []
        for tau in taus:
            try:
                inside = 0.0 <= tau <= end if closed else 0.0 < tau < end
            except (TypeError, ValueError):
                raise InvalidParameter(f"tau must be a real number, got {tau!r}") from None
            if not inside:
                domain = ("[0, %g]" if closed else "(0, %g)") % end
                raise DomainError(f"tau={tau} outside the scale-function domain {domain}")
            out.append(float(tau))
        return out

    def window(self, tol: float):
        """(lo, hi, tail): where a lifetime integral runs, and the integral of R
        it leaves out.  InvalidParameter unless tol is finite and > 0."""
        raise NotImplementedError

    def lifetime_integral(self) -> float:
        """integral of R over the whole domain (a priori operator-norm scale)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SmoothScale(ScaleFunction):
    """R(tau) = r_max * g(tau), g in C^2 with 0 < g <= 1 on (0, tau_end) (a table's
    g may stray below 0 by its interpolation error); elementwise."""

    g: Callable[[float], float]
    r_max: float
    dg: Callable[[float], float] | None = None
    label: str = "smooth"
    tau_end = math.pi

    def __post_init__(self):
        object.__setattr__(self, "r_max", finite_real(self.r_max, "r_max", 0))

    def value(self, tau):
        return self.r_max * self.g(tau)

    def derivative(self, tau: float) -> float:
        if self.dg is None:
            raise InvalidParameter(f"scale '{self.label}' carries no derivative")
        return self.r_max * self.dg(tau)

    def lifetime_integral(self) -> float:
        return float(self.r_max * smooth_integrals(self.g, 0.0, self.tau_end, G_FLOOR)[0])

    def window(self, tol: float):
        """The lifetime less its endpoint cutoffs, and |integral of R| over the
        cut-off ends.  Each cutoff is the first rung of min(0.05, tau_end / 16) *
        4^-k, k < 60, whose |tail| is below tol/2, so a scale vanishing at one
        end is cut no finer at the other.  A table's g may dip below 0 next to
        an end; up to its first zero there, |integral of R| = integral of |R|."""
        check_tolerances(quad_tol=tol)
        deltas = min(0.05, self.tau_end / 16.0) * 0.25 ** np.arange(60)
        tails = np.abs([self.tail_below(deltas), self.tail_above(deltas)])
        if not (below := tails <= tol / 2.0).any(axis=1).all():
            raise ConvergenceFailure(
                f"endpoint tail bound not reached (last delta {deltas[-1] / 4:.3e})")
        k = below.argmax(axis=1)  # each end's first rung below tol/2
        (d_lo, d_hi), tail = deltas[k].tolist(), float(tails[0, k[0]] + tails[1, k[1]])
        return d_lo, self.tau_end - d_hi, tail

    def tail_below(self, deltas) -> np.ndarray:
        return self.r_max * smooth_integrals(self.g, 0.0, deltas, G_FLOOR)

    def tail_above(self, deltas) -> np.ndarray:
        end = self.tau_end
        return self.r_max * smooth_integrals(self.g, end - deltas, end, G_FLOOR)


@dataclass(frozen=True)
class PiecewiseConstantScale(ScaleFunction):
    """Piecewise constant R with breakpoints 0 = t_0 < t_1 < ... < t_N.

    Values are taken on half-open intervals [t_{n-1}, t_n); evaluation is
    right-continuous at every breakpoint.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = tuple(finite_real(b, "breakpoint") for b in self.breakpoints)
        vals = tuple(finite_real(v, "segment value", 0) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals) + 1:
            raise InvalidParameter("need exactly one more breakpoint than values")
        if len(vals) == 0:
            raise InvalidParameter("need at least one segment")
        if bps[0] != 0.0:
            raise InvalidParameter("first breakpoint must be 0")
        if not all(b1 < b2 for b1, b2 in zip(bps, bps[1:])):
            raise InvalidParameter("breakpoints must be strictly increasing")
        # array copies for elementwise lookups (not fields: eq and hash stay on the tuples)
        object.__setattr__(self, "_inner", frozen_array(bps[1:-1], (None,), "breakpoints", float))
        object.__setattr__(self, "_values", frozen_array(vals, (None,), "values", float))

    is_piecewise = True

    @property
    def tau_end(self) -> float:
        return self.breakpoints[-1]

    @property
    def r_max(self) -> float:
        return max(self.values)

    def segment_index(self, tau):
        """Index of the segment holding tau, clamped: inner breakpoints <= tau."""
        return np.searchsorted(self._inner, tau, side="right")

    def value(self, tau):
        return self._values[self.segment_index(tau)]

    def pieces(self, lo: float, hi: float):
        """[lo, hi] cut at the breakpoints, with the segment value r on each piece."""
        cuts = [lo] + [b for b in self.breakpoints if lo < b < hi] + [hi]
        return [(a, b, self.value(0.5 * (a + b))) for a, b in zip(cuts, cuts[1:])]

    def lifetime_integral(self) -> float:
        widths = np.diff(self.breakpoints)
        return float(np.dot(widths, self.values))

    def window(self, tol: float):
        """The whole closed lifetime with no tail: its integrals are closed forms."""
        check_tolerances(quad_tol=tol)
        return 0.0, self.tau_end, 0.0


def dust_scale(r_max: float) -> SmoothScale:
    """Dust-matter scale function, normalized so that max R = r_max.

    g(tau) = (1 - cos tau) / 2 grows from the bang (g -> 0) to g(pi) = 1.
    The 1/2 keeps the convention max g = 1, so every bound stated in terms
    of m * r_max uses the actual maximum of R.  The lifetime (0, pi) runs from
    the bang to maximal expansion; the closed dust universe recollapses at
    tau = 2 pi.  Ending it at pi is this package's choice, not the paper's
    (``PAPER.md`` holds only its abstract), and this sharp end is what the
    boundary term of a smoothly switched signature operator measures.
    """
    return SmoothScale(g=lambda t: 0.5 * (1.0 - np.cos(t)), dg=lambda t: 0.5 * np.sin(t),
                       r_max=r_max, label="dust")


def constant_scale(r: float) -> SmoothScale:
    """Constant R; the frequency is time independent and WKB is exact."""
    return SmoothScale(g=lambda t: np.ones_like(t, dtype=float), dg=lambda t: 0.0,
                       r_max=r, label="constant")


def _not_a_knot(x, y):
    """(g, g') of the not-a-knot cubic through (x, y), scipy's default
    ``CubicSpline``: the knot slopes solve its tridiagonal system, end rows
    written as scipy writes them, in one Thomas sweep.  Each piece's cubic
    extends past the end knots; g and g' take one ``searchsorted`` and Horner,
    on a scalar or an array alike."""
    h, m = np.diff(x), np.diff(y) / np.diff(x)
    e0, e1 = h[0] + h[1], h[-2] + h[-1]
    sub, sup = [0.0, *h[1:].tolist(), e1], [e0, *h[:-1].tolist(), 0.0]
    diag = [h[1], *(2 * (h[:-1] + h[1:])).tolist(), h[-2]]
    s = [((h[0] + 2 * e0) * h[1] * m[0] + h[0] ** 2 * m[1]) / e0,
         *(3 * (h[1:] * m[:-1] + h[:-1] * m[1:])).tolist(),
         (h[-1] ** 2 * m[-2] + (2 * e1 + h[-1]) * h[-2] * m[-1]) / e1]
    for i in range(1, len(s)):  # eliminate the subdiagonal, then back-substitute
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        s[i] -= w * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(len(s) - 2, -1, -1):
        s[i] = (s[i] - sup[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2 * m) / h
    coef = [t / h, (m - s[:-1]) / h - t, s[:-1], y[:-1]]  # descending powers of tau - x[i]

    def horner(rows):
        def p(tau):
            i = np.searchsorted(x[1:-1], tau, side="right")
            dt, out = tau - x[i], rows[0][i]
            for row in rows[1:]:
                out = out * dt + row[i]
            return out
        return p

    return horner(coef), horner([3 * coef[0], 2 * coef[1], coef[2]])


def smooth_table_scale(taus: Sequence[float], values: Sequence[float],
                       r_max: float) -> SmoothScale:
    """C^2 scale function interpolated from a (tau, g) table, normalized so
    max g = 1 before scaling by ``r_max``.  The interpolant is the cubic spline
    with not-a-knot ends (one cubic over the first two and over the last two
    intervals; ``_not_a_knot``), its end cubics extended past the table.
    Raises ``InvalidParameter`` when the spline, sampled densely over [0, pi],
    dips below 0 or exceeds 1 by more than ``SPLINE_RANGE_TOL``.
    """
    taus = frozen_array(taus, (None,), "table abscissae", float)
    values = frozen_array(values, taus.shape, "table values", float)
    if taus.size < 4:
        raise InvalidParameter("need tables with >= 4 entries")
    if np.any(np.diff(taus) <= 0):
        raise InvalidParameter("table abscissae must be strictly increasing")
    if taus[0] < 0.0 or taus[-1] > np.pi:
        raise InvalidParameter("table abscissae must lie in [0, pi]")
    if np.any(values < 0.0) or values.max() <= 0.0:
        raise InvalidParameter("table values must be nonnegative with positive max")
    spline, slope = _not_a_knot(taus, values / values.max())
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
    return SmoothScale(g=spline, dg=slope, r_max=r_max, label="smooth_table")


@dataclass(frozen=True)
class Unitary2:
    """A validated 2x2 unitary matrix; ``defect`` is its ``unitarity_defect``."""

    matrix: np.ndarray
    defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", m := frozen_array(self.matrix, (2, 2), "Unitary2"))
        defect = unitarity_defect(m)
        if defect > UNITARITY_TOL:
            raise InvalidParameter(f"unitarity defect {defect:.3e} > {UNITARITY_TOL}")
        object.__setattr__(self, "defect", defect)


@dataclass(frozen=True)
class Hermitian2:
    """A validated 2x2 Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", m := frozen_array(self.matrix, (2, 2), "Hermitian2"))
        check_hermitian(m, "Hermitian2")

    def pauli_components(self):
        """(c0, c1, c2, c3) with M = c0*1 + sum_a c_a sigma_a; all real."""
        m = self.matrix
        return (0.5 * np.trace(m).real,
                *(0.5 * np.trace(p @ m).real for p in (SIGMA1, SIGMA2, SIGMA3)))


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported C^2-valued probe on (a, b), 0 < a < b.

    ``amplitude`` maps tau to a complex 2-vector and vanishes outside
    (a, b); times broadcast against the two components, so a column of n
    times gives an (n, 2) array.  ``l1_norm`` is the integral of its
    pointwise norm, computed when read.  The scale a probe meets says where
    (a, b) may lie.
    """

    support: tuple
    amplitude: Callable[[float], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "support", _support(self.support))

    def __call__(self, tau) -> np.ndarray:
        """phi(tau): a 2-vector, or an (n, 2) array for an (n, 1) column of times."""
        return np.asarray(self.amplitude(tau), dtype=complex)

    @property
    def l1_norm(self) -> float:
        # no absolute floor: a narrow support has a small norm, kept to rounding
        return float(smooth_integrals(
            lambda t: np.linalg.norm(self(t[:, None]), axis=1), *self.support)[0])


def _support(support) -> tuple:
    """A probe's support (a, b) as floats, 0 < a < b; InvalidParameter otherwise."""
    try:
        a, b = support
    except (TypeError, ValueError):  # no pair
        raise InvalidParameter(f"support must be a pair (a, b), got {support!r}") from None
    a, b = finite_real(a, "support end", 0), finite_real(b, "support end", 0)
    if not a < b:
        raise InvalidParameter(f"support ({a}, {b}) must satisfy 0 < a < b, both finite")
    return a, b


def mollifier(x):
    """The bump profile exp(-1/(1-x^2)) on (-1, 1), zero outside (elementwise)."""
    gap = 1.0 - x * x
    # outside, the denominator |gap| + 1 only keeps the division finite
    return np.exp(-1.0 / (abs(gap) + (gap <= 0.0))) * (gap > 0.0)


def bump(support: tuple, direction, amplitude: float = 1.0) -> TestFunction:
    """Mollifier bump along a fixed (normalized) spinor direction.

    The profile is ``amplitude * exp(-1/(1-x^2))`` with x rescaled so the
    bump fills ``support``; the amplitude is a finite real number.
    """
    a, b = _support(support)
    d = frozen_array(direction, (2,), "direction")
    if not np.linalg.norm(d) > 0:
        raise InvalidParameter("direction must be nonzero")
    d = d / np.linalg.norm(d)
    amp = finite_real(amplitude, "amplitude")

    def profile(tau):
        x = (2.0 * tau - a - b) / (b - a)
        return amp * mollifier(x) * d

    return TestFunction(support=(a, b), amplitude=profile)


def complex_bump(support: tuple, vector_of_tau: Callable[[float], np.ndarray]) -> TestFunction:
    """Probe with an arbitrary smooth spinor-valued profile times the mollifier."""
    a, b = _support(support)

    def profile(tau):
        # ``vector_of_tau`` takes one time, inside the support
        times = np.ravel(tau).tolist()
        weights = mollifier((2.0 * np.array(times) - a - b) / (b - a)).tolist()
        vals = [w * np.asarray(vector_of_tau(t), dtype=complex) if w else (0j, 0j)
                for t, w in zip(times, weights)]
        return np.array(vals).reshape(np.broadcast_shapes(np.shape(tau), (2,)))

    return TestFunction(support=(a, b), amplitude=profile)
