"""Empirical verification of the WKB error-bound scalings.

Every bound proved for this system is existential in its constant, so the
strongest falsifiable desk-scale test is an envelope fit: measure the
quantity at the smallest grid point, solve for the constant, and demand
that every larger instance stays under the fitted envelope (plus a small
documented slack absorbing quadrature noise).  The least-squares log-log
slope of the measured quantity is reported alongside.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .evolution import wkb_deviations
from .model import (
    DEFAULT_GAP_TOL,
    DEFAULT_ODE_TOL,
    DEFAULT_QUAD_TOL,
    IDENTITY2,
    Mode,
    bump,
    check_tolerances,
    dust_scale,
    finite_real,
    integer_index,
    is_physical_eigenvalue,
    spectral_norm,
)
from .projector import (
    fermionic_projector_apply,
    p_wkb_apply,
    signature_operator,
    signature_operator_wkb,
    wkb_signature_leading_term,
)

DEFAULT_SLACK = 0.05
DEFAULT_TAU0 = float(np.pi / 2)
#: Sampling window for pointwise deviation suprema (away from the endpoints).
W_WINDOW_MARGIN = 0.1
W_WINDOW_POINTS = 41


class StudyKind(enum.Enum):
    S_WKB_BOUND = "s_wkb_bound"
    P_WKB_BOUND = "p_wkb_bound"
    LEADING_TERM_BOUND = "leading_term_bound"
    W_DEVIATION = "w_deviation"


@dataclass(frozen=True)
class LambdaSpec:
    """How the spatial eigenvalue is chosen at each grid point.

    fixed: always ``value``.  track_mrmax: nearest physical eigenvalue to
    k * (m r_max).  track_power: nearest physical eigenvalue to
    (m r_max) ** exponent.
    """

    kind: str = "fixed"
    value: float = 1.5
    k: float = 1.0
    exponent: float = 0.8

    def resolve(self, m_rmax: float) -> float:
        if self.kind not in LAMBDA_KINDS:
            raise InvalidParameter(f"unknown lambda spec kind {self.kind!r}")
        field, pick = LAMBDA_KINDS[self.kind]
        return pick(getattr(self, field), m_rmax)


def nearest_physical_eigenvalue(x: float) -> float:
    """Closest half-integer of magnitude >= 3/2 to x (sign preserved)."""
    sign = -1.0 if x < 0 else 1.0
    mag = max(abs(x), 1.5)
    half = round(mag - 0.5) + 0.5
    return sign * max(half, 1.5)


#: Each lambda-spec kind: the one ``LambdaSpec`` field it reads, and the
#: eigenvalue it picks from that field at m r_max.
LAMBDA_KINDS = {
    "fixed": ("value", lambda value, m_rmax: value),
    "track_mrmax": ("k", lambda k, m_rmax: nearest_physical_eigenvalue(k * m_rmax)),
    "track_power": ("exponent", lambda exponent, m_rmax: nearest_physical_eigenvalue(
        m_rmax ** exponent)),
}


@dataclass(frozen=True)
class StudyRecord:
    m_rmax: float
    lam: float
    measured: float
    envelope: float
    passed: bool


@dataclass(frozen=True)
class StudyResult:
    kind: StudyKind
    records: tuple
    fitted_constant: float
    slope: float
    slack: float
    passed: bool

    def first_failure(self):
        return next((rec for rec in self.records if not rec.passed), None)


@dataclass(frozen=True)
class ProbeSpec:
    """Serializable bump description for the projector studies."""

    support: tuple = (1.0, 2.0)
    direction: tuple = (1.0 + 0.0j, 0.0 + 0.0j)
    amplitude: float = 1.0

    def build(self):
        return bump(self.support, self.direction, self.amplitude)


def _s_wkb_gap(mode, scale, probe, ode_tol, quad_tol, gap_tol):
    s = signature_operator(mode, scale, tol=quad_tol, ode_tol=ode_tol)
    sw = signature_operator_wkb(mode, scale, tol=quad_tol, ode_tol=ode_tol)
    return spectral_norm(s.s.matrix - sw.s.matrix)


def _p_wkb_gap(mode, scale, probe, ode_tol, quad_tol, gap_tol):
    phi, tols = probe.build(), dict(tol=ode_tol, quad_tol=quad_tol, gap_tol=gap_tol)
    p = fermionic_projector_apply(mode, scale, phi, **tols).value
    return float(np.linalg.norm(p - p_wkb_apply(mode, scale, phi, **tols).value))


def _leading_term_gap(mode, scale, probe, ode_tol, quad_tol, gap_tol):
    sw = signature_operator_wkb(mode, scale, tol=quad_tol, ode_tol=ode_tol)
    lead = wkb_signature_leading_term(mode, scale)
    return spectral_norm(sw.s.matrix - lead.matrix)


def _w_deviation(mode, scale, probe, ode_tol, quad_tol, gap_tol):
    taus = np.linspace(W_WINDOW_MARGIN, scale.tau_end - W_WINDOW_MARGIN,
                       W_WINDOW_POINTS)
    return float(spectral_norm(wkb_deviations(mode, scale, taus, ode_tol) - IDENTITY2).max())


#: Each study: its envelope shape at (m r_max, mass, r_max, probe L1 norm),
#: and the quantity it measures on (mode, dust scale, probe, tolerances).
STUDIES = {
    StudyKind.S_WKB_BOUND: (lambda m_rmax, mass, r_max, l1: mass ** -0.2 * r_max ** 0.8,
                            _s_wkb_gap),
    StudyKind.P_WKB_BOUND: (lambda m_rmax, mass, r_max, l1: m_rmax ** -0.2 * r_max * l1,
                            _p_wkb_gap),
    StudyKind.LEADING_TERM_BOUND: (lambda m_rmax, mass, r_max, l1: 1.0 / mass,
                                   _leading_term_gap),
    StudyKind.W_DEVIATION: (lambda m_rmax, mass, r_max, l1: m_rmax ** -0.2,
                            _w_deviation),
}


def _measure(kind: StudyKind, m_rmax: float, lam: float, mass: float,
             r_max: float, *, tau0: float, probe: ProbeSpec | None,
             ode_tol: float, quad_tol: float, gap_tol: float) -> float:
    mode = Mode(lam=lam, mass=mass, tau0=tau0,
                physical=is_physical_eigenvalue(lam))
    return STUDIES[kind][1](mode, dust_scale(r_max), probe, ode_tol, quad_tol, gap_tol)


def grid_point(kind: StudyKind, m_rmax: float, leading_r_max: float = 1.0):
    """(mass, r_max) at a grid value: unit mass, except that the leading-term
    study holds r_max at ``leading_r_max`` and reads the grid as masses."""
    if kind is StudyKind.LEADING_TERM_BOUND:
        return m_rmax / leading_r_max, leading_r_max
    return 1.0, m_rmax


def run_study(kind: StudyKind, grid, lam_spec: LambdaSpec = LambdaSpec(),
              probe: ProbeSpec | None = None,
              leading_r_max: float = 1.0,
              tau0: float = DEFAULT_TAU0,
              slack: float = DEFAULT_SLACK,
              ode_tol: float = DEFAULT_ODE_TOL,
              quad_tol: float = DEFAULT_QUAD_TOL,
              gap_tol: float = DEFAULT_GAP_TOL,
              jobs: int = 1) -> StudyResult:
    """Envelope study over an ascending grid of m * r_max products.

    The dust model is used throughout with unit mass, except for the
    leading-term study which holds ``leading_r_max`` fixed and reads the
    grid as masses.  The constant is fitted at the first grid point
    (serially); the remaining points are shared among at most ``jobs``
    worker processes, never more than there are points.  Every tolerance
    is checked, whether the study kind reads it or not.
    """
    check_tolerances(ode_tol, quad_tol, gap_tol)
    jobs = integer_index(jobs, "jobs", 1)
    slack = finite_real(slack, "slack", 0, closed=True)
    leading_r_max = finite_real(leading_r_max, "leading_r_max", 0)
    # every grid value must exceed 1: the bound hypothesis
    grid = [finite_real(x, "grid value", 1) for x in grid]
    if len(grid) < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameter("grid must be a nonempty ascending sequence")
    if kind is StudyKind.P_WKB_BOUND and probe is None:
        probe = ProbeSpec()

    points = [(m_rmax, lam_spec.resolve(m_rmax), *grid_point(kind, m_rmax, leading_r_max))
              for m_rmax in grid]

    probe_l1 = probe.build().l1_norm if probe is not None else 1.0
    measure = functools.partial(_measure, kind, tau0=tau0, probe=probe,
                                ode_tol=ode_tol, quad_tol=quad_tol, gap_tol=gap_tol)
    measured = [measure(*points[0])]
    # a pool starts all of its workers at once: no more than there are points
    workers = min(jobs, len(points) - 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded by pooled runs only
        with ProcessPoolExecutor(max_workers=workers) as pool:
            measured.extend(pool.map(measure, *zip(*points[1:])))
    else:
        measured.extend(itertools.starmap(measure, points[1:]))

    shapes = [STUDIES[kind][0](m_rmax, mass, r_max, probe_l1)
              for (m_rmax, lam, mass, r_max) in points]
    if shapes[0] <= 0 or measured[0] <= 0:
        raise InvalidParameter("degenerate fit point; cannot calibrate envelope")
    c_fit = measured[0] / shapes[0]

    records = []
    for (m_rmax, lam, mass, r_max), meas, shape in zip(points, measured, shapes):
        envelope = (1.0 + slack) * c_fit * shape
        records.append(StudyRecord(m_rmax=m_rmax, lam=lam, measured=meas,
                                   envelope=envelope, passed=bool(meas <= envelope)))

    logs = np.log(np.asarray(grid))
    logm = np.log(np.maximum(np.asarray(measured), 1e-300))
    slope = float(np.polyfit(logs, logm, 1)[0]) if len(grid) > 1 else 0.0
    return StudyResult(kind=kind, records=tuple(records),
                       fitted_constant=c_fit, slope=slope, slack=slack,
                       passed=all(r.passed for r in records))
