"""The input rules of ``model``, one home each.

* ``frozen_array``: every value type freezes the arrays it holds, and every
  builder the arrays it takes, into read-only finite copies of the declared
  shape; NaN, inf, a wrong shape or a value numpy cannot read raises
  ``InvalidParameter``, never a numpy error.
* ``check_hermitian``: the one hermiticity test, for ``Hermitian2`` and
  ``CorrelationOperator`` alike.
* ``check_tolerances``: the one tolerance check, in the order ode,
  quadrature, gap, classify, with the words every entry point has always
  used; a tolerance that is no number fails it too.
* ``finite_real`` and ``integer_index``: every number and index an entry
  point takes, a time aside, passes one of them; a time passes the scale's
  ``check_domain``.  A string, None, a complex number or a fractional index
  raises ``InvalidParameter``, never a ``TypeError`` or ``ValueError`` from
  deeper in the package, and never files a member under a truncated index.
"""

import math

import numpy as np
import pytest

from diracsea import model, studies
from diracsea.bloch import BlochState, build_six_segment, make_scenario, perturb_scenario
from diracsea.cfs import (CorrelationOperator, FamilyMember, SolutionFamily, build_family,
                          causal_classify, kernel_apply, local_correlation,
                          negative_subspace_family, orthonormalize)
from diracsea.errors import DomainError, InvalidParameter
from diracsea.evolution import accumulated_phase, evolve
from diracsea.model import (
    Hermitian2,
    Mode,
    PiecewiseConstantScale,
    SIGMA3,
    Unitary2,
    bump,
    check_tolerances,
    complex_bump,
    constant_scale,
    dust_scale,
    finite_real,
    frozen_array,
    integer_index,
    smooth_table_scale,
)
from diracsea.projector import (ProjectorOutput, Provenance, fermionic_projector_apply,
                                p_wkb_apply, signature_operator)
from diracsea.studies import StudyKind, run_study

MODE = Mode(lam=1.5, mass=1.0, tau0=float(np.pi / 2))
TABLE_T = np.linspace(0.0, np.pi, 12)
TABLE_G = np.sin(TABLE_T / 2) ** 2

#: (builder of one array, a value it accepts, the array it then holds or None)
TAKERS = {
    "Unitary2": (Unitary2, np.eye(2), lambda v: v.matrix),
    "Hermitian2": (Hermitian2, SIGMA3, lambda v: v.matrix),
    "ProjectorOutput": (lambda a: ProjectorOutput(a, Provenance.EXACT), [1.0, 0.5j],
                        lambda v: v.value),
    "FamilyMember": (lambda a: FamilyMember(0, a), [1.0, 0.5j], lambda v: v.spinor),
    "CorrelationOperator": (lambda a: CorrelationOperator(a, 1.0, (0, 0)), SIGMA3,
                            lambda v: v.matrix),
    "BlochState": (lambda a: BlochState(a, 1.0), np.eye(3), lambda v: v.w),
    "SolutionFamily.gram": (lambda a: SolutionFamily((MODE,), dust_scale(5.0), (), a),
                            np.eye(2), lambda v: v.gram),
    "build_family": (lambda a: build_family([MODE], dust_scale(5.0), [(0, a)],
                                            require_negative_subspace=False),
                     [1.0, 0.0], lambda v: v.members[0].spinor),
    "bump": (lambda a: bump((1.0, 2.0), a), [1.0, 0.5j], None),
    "table_taus": (lambda a: smooth_table_scale(a, TABLE_G, 5.0), TABLE_T, None),
    "table_values": (lambda a: smooth_table_scale(TABLE_T, a, 5.0), TABLE_G, None),
}


def _with_first(value, x):
    a = np.array(value, dtype=complex)
    a.flat[0] = x
    return a if np.iscomplexobj(np.asarray(value)) else a.real


def _ragged(value):
    rows = np.asarray(value).tolist()
    return [*rows[:-1], rows[-1][:-1]] if isinstance(rows[-1], list) else [*rows, [1.0, 2.0]]


BAD = {
    "nan": lambda v: _with_first(v, math.nan),
    "inf": lambda v: _with_first(v, math.inf),
    "wrong_shape": lambda v: np.expand_dims(np.asarray(v), -1),
    "scalar": lambda v: 1.0,
    "ragged": _ragged,
    "string": lambda v: "abc",
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("taker", TAKERS)
def test_bad_arrays_raise_invalid_parameter(taker, bad):
    build, good, _ = TAKERS[taker]
    build(good)
    with pytest.raises(InvalidParameter):
        build(BAD[bad](good))


@pytest.mark.parametrize("taker", [name for name, (*_, held) in TAKERS.items() if held])
def test_held_arrays_are_read_only_copies(taker):
    build, good, held = TAKERS[taker]
    source = np.array(good, dtype=np.asarray(good).dtype)
    array = held(build(source))
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array.flat[0] = 0.0
    source.flat[0] = 7.0
    assert array.flat[0] != 7.0


def test_a_family_gram_is_read_only():
    scale = dust_scale(5.0)
    for family in (negative_subspace_family([MODE], scale),
                   orthonormalize(build_family([MODE], scale, [(0, [1.0, 0.0]), (0, [0.0, 1.0])],
                                               require_negative_subspace=False))):
        assert not family.gram.flags.writeable


def test_the_four_mended_holes():
    # a NaN defect used to pass the unitarity bound; NaN made the SVD fail
    # with numpy's LinAlgError; a NaN table built a scale whose g was NaN
    nan = np.full((2, 2), math.nan)
    for build in (Unitary2, Hermitian2, lambda a: CorrelationOperator(a, 1.0, (0, 0))):
        with pytest.raises(InvalidParameter, match="must be finite"):
            build(nan)
    with pytest.raises(InvalidParameter, match="must be finite"):
        smooth_table_scale(TABLE_T, np.where(TABLE_T > 1.0, math.nan, TABLE_G), 5.0)


def test_frozen_array_shapes():
    assert frozen_array([[1, 2], [3, 4]], None, "m").dtype == complex
    assert frozen_array(np.ones((3, 3)), None, "m", float).shape == (3, 3)
    assert frozen_array(np.arange(5.0), (None,), "t", float).shape == (5,)
    # Fortran-ordered input still gives a C-ordered copy
    assert frozen_array(np.eye(2, order="F")[:, ::-1], (2, 2), "m").flags.c_contiguous
    for value, shape in ((1.0, None), (np.ones((2, 3)), None), (np.ones(3), (2,)),
                         (np.ones((2, 2)), (None,))):
        with pytest.raises(InvalidParameter, match="must have shape"):
            frozen_array(value, shape, "m")


def test_hermiticity_is_one_rule():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    for build in (Hermitian2, lambda a: CorrelationOperator(a, 1.0, (0, 0))):
        with pytest.raises(InvalidParameter, match="hermiticity defect"):
            build(skew)
    # the bound is relative to max(1, ||m||): a defect of 1e-13 passes at any size
    for size in (1.0, 1e6):
        m = size * SIGMA3 + 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]])
        Hermitian2(m)
        CorrelationOperator(m, 1.0, (0, 0))


@pytest.mark.parametrize("kwargs,message", [
    ({"ode_tol": 1e-3}, r"ode tolerance 0\.001 outside \(1e-14, 0\.0001\)"),
    ({"ode_tol": 1e-14}, "ode tolerance 1e-14 outside"),
    ({"ode_tol": math.nan}, "ode tolerance nan outside"),
    ({"quad_tol": 0.0}, "quadrature tolerance must be finite and > 0, got 0.0"),
    ({"quad_tol": math.inf}, "quadrature tolerance must be finite and > 0, got inf"),
    ({"gap_tol": -1.0}, "gap_tol must be finite and > 0, got -1.0"),
    ({"gap_tol": math.nan}, "gap_tol must be finite and > 0, got nan"),
    ({"classify_tol": 0.0}, "classify tolerance must be finite and > 0, got 0.0"),
    # a tolerance that is no number fails the same check, in the same words
    ({"ode_tol": "x"}, r"ode tolerance x outside \(1e-14, 0\.0001\)"),
    ({"gap_tol": None, "classify_tol": "x"}, "classify tolerance must be finite and > 0, got x"),
    # the order is ode, quadrature, gap
    ({"ode_tol": 1.0, "quad_tol": math.nan, "gap_tol": math.nan}, "ode tolerance"),
    ({"quad_tol": math.nan, "gap_tol": math.nan}, "quadrature tolerance"),
])
def test_tolerance_messages(kwargs, message):
    with pytest.raises(InvalidParameter, match=message):
        check_tolerances(**kwargs)


def test_good_tolerances_pass():
    check_tolerances()
    check_tolerances(1e-10, 1e-9, 1e-6)


def test_entry_points_raise_for_the_same_first_bad_input():
    scale, phi = dust_scale(5.0), bump((1.0, 2.0), [1.0, 0.0])
    with pytest.raises(InvalidParameter, match="ode tolerance"):
        build_family([MODE], scale, [(0, [1.0, 0.0])], ode_tol=1.0, quad_tol=0.0, gap_tol=0.0)
    with pytest.raises(InvalidParameter, match="quadrature tolerance"):
        negative_subspace_family([MODE], scale, quad_tol=0.0, gap_tol=0.0)
    with pytest.raises(InvalidParameter, match="gap_tol"):
        run_study(StudyKind.S_WKB_BOUND, [5.0], gap_tol=0.0, jobs=0)
    # the projector images check ode_tol, then tau0 and the support, then gap_tol
    outside = Mode(lam=1.5, mass=1.0, tau0=4.0)
    for apply in (fermionic_projector_apply, p_wkb_apply):
        with pytest.raises(InvalidParameter, match="ode tolerance"):
            apply(outside, scale, phi, tol=1.0, gap_tol=0.0)
        with pytest.raises(DomainError):
            apply(outside, scale, phi, gap_tol=0.0)
        with pytest.raises(InvalidParameter, match="gap_tol"):
            apply(MODE, scale, phi, gap_tol=0.0, quad_tol=0.0)


def _family():
    return build_family([MODE], dust_scale(5.0), [(0, [1.0, 0.0])],
                        require_negative_subspace=False)


def _correlation():
    return CorrelationOperator(SIGMA3, 1.0, (0, 0))


PHI = bump((1.0, 2.0), [1.0, 0.0])
SCENARIO_MODE = Mode(lam=1.5, mass=1.0, tau0=0.0)

#: Each input that used to escape as a raw TypeError, ValueError or
#: ZeroDivisionError, or to pass (index 0.5 as mode 0; jobs 1.5 until a pool
#: started), as a call that must raise InvalidParameter.
LEAKS = {
    "Mode lam str": lambda: Mode(lam="a", mass=1.0, tau0=0.5),
    "Mode lam None": lambda: Mode(lam=None, mass=1.0, tau0=0.5),
    "Mode mass str": lambda: Mode(lam=1.5, mass="x", tau0=0.5),
    "Mode tau0 complex": lambda: Mode(lam=1.5, mass=1.0, tau0=0.5j),
    "dust_scale str": lambda: dust_scale("x"),
    "constant_scale None": lambda: constant_scale(None),
    "piecewise breakpoint str": lambda: PiecewiseConstantScale((0, "a"), (1,)),
    "piecewise value None": lambda: PiecewiseConstantScale((0, 1), (None,)),
    "bump support str": lambda: bump(("a", 2), [1.0, 0.0]),
    "bump support three numbers": lambda: bump((1.0, 1.5, 2.0), [1.0, 0.0]),
    "bump support None": lambda: bump(None, [1.0, 0.0]),
    "bump support one number": lambda: bump((1.0,), [1.0, 0.0]),
    "bump support empty string": lambda: bump("", [1.0, 0.0]),
    "complex_bump support three numbers": lambda: complex_bump((1.0, 1.5, 2.0),
                                                               lambda t: (1.0, 0.0)),
    "TestFunction support None": lambda: model.TestFunction(None, lambda t: (1.0, 0.0)),
    "bump amplitude str": lambda: bump((1.0, 2.0), [1.0, 0.0], amplitude="q"),
    "complex_bump support str": lambda: complex_bump(("a", 2), lambda t: (1.0, 0.0)),
    "make_scenario rotations str": lambda: make_scenario(SCENARIO_MODE, [(1.0, "a")]),
    "perturb_scenario index str": lambda: perturb_scenario(build_six_segment(), "a", 0.1),
    "perturb_scenario index 1.5": lambda: perturb_scenario(build_six_segment(), 1.5, 0.1),
    "perturb_scenario dp str": lambda: perturb_scenario(build_six_segment(), 1, "x"),
    "run_study grid str": lambda: run_study(StudyKind.S_WKB_BOUND, ["a"]),
    "run_study slack str": lambda: run_study(StudyKind.S_WKB_BOUND, [5.0], slack="a"),
    "run_study jobs str": lambda: run_study(StudyKind.S_WKB_BOUND, [5.0], jobs="2"),
    "run_study jobs 1.5": lambda: run_study(StudyKind.S_WKB_BOUND, [5.0], jobs=1.5),
    "run_study leading_r_max 0": lambda: run_study(StudyKind.LEADING_TERM_BOUND, [5.0],
                                                   leading_r_max=0),
    "run_study leading_r_max str": lambda: run_study(StudyKind.LEADING_TERM_BOUND, [5.0],
                                                     leading_r_max="x"),
    "causal_classify tol str": lambda: causal_classify(_correlation(), _correlation(),
                                                       tol="a"),
    "signature_operator tol str": lambda: signature_operator(MODE, dust_scale(5.0), tol="x"),
    "signature_operator ode_tol str": lambda: signature_operator(MODE, dust_scale(5.0),
                                                                 ode_tol="x"),
    "evolve tau_to str": lambda: evolve(MODE, dust_scale(5.0), 1.0, "x"),
    "accumulated_phase tau_to str": lambda: accumulated_phase(MODE, dust_scale(5.0), 1.0, "x"),
    "local_correlation tau str": lambda: local_correlation(_family(), "x"),
    "check_domain str": lambda: dust_scale(5.0).check_domain("x"),
    "build_family index str": lambda: build_family([MODE], dust_scale(5.0), [("a", [1.0, 0.0])],
                                                   require_negative_subspace=False),
    "build_family index 0.5": lambda: build_family([MODE], dust_scale(5.0), [(0.5, [1.0, 0.0])],
                                                   require_negative_subspace=False),
    "kernel_apply index str": lambda: kernel_apply(_family(), 1.0, PHI, "a"),
}


@pytest.mark.parametrize("case", LEAKS)
def test_leaked_inputs_raise_invalid_parameter(case):
    with pytest.raises(InvalidParameter):
        LEAKS[case]()


def test_a_fractional_jobs_count_raises_before_any_grid_point(monkeypatch):
    measured = []
    monkeypatch.setattr(studies, "_measure", lambda *args, **kw: measured.append(args) or 1.0)
    with pytest.raises(InvalidParameter, match=r"jobs must be an integer >= 1, got 1\.5"):
        run_study(StudyKind.S_WKB_BOUND, [5.0, 10.0], jobs=1.5)
    assert measured == []


@pytest.mark.parametrize("call,message", [
    # the words already in the house form, kept
    (lambda: Mode(lam=1.5, mass=1.0, tau0=-1.0), "tau0 must be finite and >= 0, got -1.0"),
    (lambda: run_study(StudyKind.S_WKB_BOUND, [5.0], slack=-1.0),
     "slack must be finite and >= 0, got -1.0"),
    (lambda: bump((1.0, 2.0), [1.0, 0.0], amplitude=math.nan),
     "amplitude must be finite, got nan"),
    # the words that gained "finite"
    (lambda: Mode(lam=1.5, mass=0.0, tau0=1.0), "mass must be finite and > 0, got 0.0"),
    (lambda: dust_scale(math.inf), "r_max must be finite and > 0, got inf"),
    (lambda: PiecewiseConstantScale((0.0, math.inf), (1.0,)),
     "breakpoint must be finite, got inf"),
    (lambda: PiecewiseConstantScale((0.0, 1.0), (-1.0,)),
     "segment value must be finite and > 0, got -1.0"),
    (lambda: run_study(StudyKind.S_WKB_BOUND, [1.0]),
     "grid value must be finite and > 1, got 1.0"),
    (lambda: build_family([MODE], dust_scale(5.0), [(1, [1.0, 0.0])]),
     r"mode index must be an integer in \[0, 1\), got 1"),
])
def test_scalar_messages(call, message):
    with pytest.raises(InvalidParameter, match=message):
        call()


def test_a_time_outside_the_domain_stays_a_domain_error():
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            dust_scale(5.0).check_domain(tau)
    with pytest.raises(InvalidParameter, match="tau must be a real number, got 'x'"):
        dust_scale(5.0).check_domain(1.0, "x")


def test_good_scalars_come_back_as_python_numbers():
    assert finite_real(np.float64(2.5), "x", 0) == 2.5
    assert type(finite_real(np.int64(2), "x", 0)) is float
    assert type(integer_index(np.int64(2), "i", 0, 3)) is int
    times = dust_scale(5.0).check_domain(np.float64(1.0), 2)
    assert times == [1.0, 2.0] and all(type(t) is float for t in times)
    mode = Mode(lam=np.float64(1.5), mass=2, tau0=np.float32(0.5))
    assert all(type(x) is float for x in (mode.lam, mode.mass, mode.tau0))
    assert type(dust_scale(np.int64(5)).r_max) is float
    assert all(type(x) is float for x in PHI.support)
    for value in (1.0, 0.5, np.float64(2.0), "1", None):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            integer_index(value, "i")
