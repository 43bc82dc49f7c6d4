"""The input rules of ``model``, one home each.

* ``frozen_array``: every value type freezes the arrays it holds, and every
  builder the arrays it takes, into read-only finite copies of the declared
  shape; NaN, inf, a wrong shape or a value numpy cannot read raises
  ``InvalidParameter``, never a numpy error.
* ``check_hermitian``: the one hermiticity test, for ``Hermitian2`` and
  ``CorrelationOperator`` alike.
* ``check_tolerances``: the one tolerance check, in the order ode,
  quadrature, gap, with the words every entry point has always used.
"""

import math

import numpy as np
import pytest

from diracsea.bloch import BlochState
from diracsea.cfs import (CorrelationOperator, FamilyMember, SolutionFamily, build_family,
                          negative_subspace_family, orthonormalize)
from diracsea.errors import DomainError, InvalidParameter
from diracsea.model import (
    Hermitian2,
    Mode,
    SIGMA3,
    Unitary2,
    bump,
    check_tolerances,
    dust_scale,
    frozen_array,
    smooth_table_scale,
)
from diracsea.projector import (ProjectorOutput, Provenance, fermionic_projector_apply,
                                p_wkb_apply)
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
