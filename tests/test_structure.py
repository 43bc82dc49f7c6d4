"""Structure of the package, read from its source with ``ast``.

* The adaptive stepper has one caller, ``evolution.cointegrate``; the
  stepper module's own internals aside, nothing else calls ``integrate``.
  ``integrate`` keeps the parameters the benchmark's tracer
  (``perfbench/tracing.py``) wraps it with.  ``cointegrate`` alone reads
  ``OSCILLATION_RESOLUTION``: it forms every step ceiling from the rate
  its transport turns at.
* ``evolution.propagators`` is the one exact-propagator sweep: its callers
  are ``evolve``, ``evolve_grid`` and ``cfs.members_at``, one call each,
  and it alone calls the one piecewise routine, ``_piecewise_propagators``,
  the only caller of ``segment_propagator``.
* ``exact_transport`` alone picks the form of the transport's right-hand
  side, from the stack size: one mode steps on Python scalars, with no
  numpy call in its ``rhs``; a larger stack keeps the numpy row permutation.
* The stepper route stands on its own: ``cointegrate``, ``interval_integral``,
  the transports and the generator route to the WKB deviation call none
  of ``propagators``, ``accumulated_phase`` or ``levin_integral``, so the
  oracles it gives never start from the routes they check.
* ``bloch``'s smooth frames are the adjoint action of the exact
  propagators, from ``evolve_grid``, and its smooth rows ride on
  ``exact_transport``: no SO(3) transport or SVD re-projection is left in
  the package, and only the piecewise closed forms read the hard-wired
  ``rotation_generator``.
* One adaptive panel walk, ``model.panel_walk``, holds the refinement
  ``while`` loop and raises the panel-budget ``ConvergenceFailure``: the
  only other ``while`` is the stepper's step loop, and neither ``levin``
  nor ``smooth_integrals`` holds one.
* ``levin.levin_integral`` calls its integrand in one place, ``panel``,
  with the nodes of all of a round's panels at once: no loop runs there.
  ``projector`` calls the walk in one place, ``_segments``, outside any
  loop: one walk per image, whose rows are the pieces of the support.
* ``evolution.wkb_propagators`` alone assembles WKB propagators, and
  ``wkb_deviations`` alone forms the WKB deviation: each grid takes one
  call, and no package code calls the one-time ``wkb_evolve`` or
  ``wkb_deviation``.
* No function body imports a module of the package, and the module import
  graph has no cycle.
* A rotation-count ``Scenario`` is a ``PiecewiseConstantScale`` and nothing
  more: no conversion to a plain scale, no ``isinstance`` test of it or
  of any scale kind (``is_piecewise`` tells them apart), and the same
  frames and rows as the plain scale with its breakpoints and values.
* Each scenario and CLI choice is one table entry: the schema's scale kinds
  are ``SCALE_KINDS``, whose builders ``parse_scenario`` calls without
  comparing kind names; the study kinds are ``STUDIES``; the lambda-spec
  kinds are ``LAMBDA_KINDS``, each naming the one field it reads, for the
  schema and ``LambdaSpec.resolve`` alike; the ``project`` variants are
  ``cli.PROJECTORS``, each naming the tolerances its projector reads; and
  the commands leave the output format to ``cli._emit``.
* Each value has one home: the leading-order projector is
  ``p_wkb_leading_apply`` alone, a probe's L1 norm is computed when read,
  the WKB frame is composed by ``wkb_propagators`` alone, a study
  record holds no copy of its study's kind or fitted constant, and
  ``Unitary2`` and ``Hermitian2`` hold their matrix in one field,
  ``matrix``, with no second name for it.
* The scale owns where tau may go: ``Mode``, ``TestFunction``, ``bump``,
  ``complex_bump`` and ``SCENARIO_SCHEMA`` name no ``pi``; no
  ``check_mode_scale`` or ``_choose_cutoffs`` is left anywhere.  Each of
  the five lifetime integrals opens with the scale's ``window`` on both
  scale kinds; ``SmoothScale.window`` alone reads the tails, and no
  signature takes a ``closed_form`` or ``lifetime_integral`` callback.
* An entry point checks every tolerance it takes, at entry: the quadrature
  tolerance is checked by the two ``window`` methods, and by
  ``build_family``, ``negative_subspace_family`` and ``run_study``, which
  take it whether or not they open a window.
* Each input rule has one home, in ``model``: ``check_tolerances`` is the one
  tolerance check (no module defines or imports another), ``frozen_array``
  alone calls ``setflags``, and ``check_hermitian`` alone reads
  ``HERMITICITY_TOL``.
* No module imports ``scipy``: the smooth lifetime integrals are
  ``model.smooth_integrals``, and a table scale's spline is
  ``model._not_a_knot``.
* No module imports ``jsonschema``: ``scenario_io`` checks its schema tables
  with its own keyword table.
* ``concurrent.futures`` is imported only inside ``studies.run_study``, when
  it starts a pool: a serial run and the CLI's import load none.
"""

import ast
import dataclasses
import inspect
import re
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import numpy as np
import pytest

from diracsea import model
from diracsea.bloch import (Scenario, build_six_segment, make_scenario,
                            perturb_scenario, propagate_bloch,
                            v_rows_with_cumulative)
from diracsea.cli import PROJECTORS
from diracsea.model import Mode, PiecewiseConstantScale
from diracsea.scenario_io import RUN_OPTIONS, SCALE_KINDS, SCENARIO_SCHEMA
from diracsea.stepper import integrate
from diracsea.studies import LAMBDA_KINDS, STUDIES, LambdaSpec, StudyKind, StudyRecord

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracsea"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _sites(match):
    """Counter of (module, enclosing function path) for the nodes ``match`` accepts."""
    found = Counter()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = where + (node.name,)
        if match(node):
            found[(module, ".".join(where))] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, tree in MODULES.items():
        visit(tree, module, ())
    return found


def _calls(names, accept=lambda call: True):
    """``_sites`` of the calls of ``names`` that ``accept`` returns true for."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in names and accept(node)

    return _sites(match)


def _calls_in(kinds, fn, names):
    """Calls of ``names`` inside a node of ``kinds`` (a loop, say) in ``fn``."""
    return [call for outer in ast.walk(fn) if isinstance(outer, kinds)
            for call in ast.walk(outer) if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) in names]


def _package_targets(node):
    """Modules of the package an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("diracsea.")]
    if node.level == 0 and not (node.module or "").startswith("diracsea"):
        return []
    base = (node.module or "").removeprefix("diracsea").lstrip(".")
    if base:
        return [base.split(".")[0]]
    return [a.name for a in node.names]  # from . import module


def test_cointegrate_is_the_only_stepper_caller():
    calls = _calls({"integrate"})
    callers = {key for key in calls if key[0] != "stepper"}
    assert callers == {("evolution", "cointegrate")}


def test_only_cointegrate_reads_the_oscillation_resolution():
    reads = _sites(lambda node: isinstance(node, ast.Name)
                   and node.id == "OSCILLATION_RESOLUTION"
                   and isinstance(node.ctx, ast.Load))
    assert set(reads) == {("evolution", "cointegrate.ceiling")}


def test_stepper_takes_the_parameters_the_tracer_wraps():
    # perfbench/tracing.py calls integrate through a wrapper with these
    # parameters; a traced run would break on any other signature
    tracing = ast.parse((PACKAGE.parent.parent / "perfbench" / "tracing.py")
                        .read_text(encoding="utf-8"))
    wrap = next(fn for fn in ast.walk(tracing)
                if isinstance(fn, ast.FunctionDef) and fn.name == "_wrap_integrate")
    wrapper = next(fn for fn in ast.walk(wrap)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "wrapper")
    names = [a.arg for a in wrapper.args.args]
    defaults = dict(zip(names[::-1], [ast.literal_eval(d)
                                      for d in wrapper.args.defaults[::-1]]))
    params = inspect.signature(integrate).parameters.values()
    assert [p.name for p in params] == names
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert {p.name: p.default for p in params
            if p.default is not p.empty} == defaults


def test_propagators_is_the_only_exact_sweep():
    assert _calls({"propagators"}) == Counter({
        ("evolution", "evolve"): 1,
        ("evolution", "evolve_grid"): 1,
        ("cfs", "members_at"): 1,
    })
    assert set(_calls({"_piecewise_propagators"})) == {("evolution", "propagators")}
    assert set(_calls({"segment_propagator"})) == {
        ("evolution", "_piecewise_propagators")}


def test_stepper_route_calls_no_production_route():
    route = {"cointegrate", "interval_integral", "exact_transport", "phase_transport",
             "wkb_deviation_by_generator"}
    calls = _calls({"propagators", "accumulated_phase", "levin_integral"})
    assert not [key for key in calls if key[1].split(".")[0] in route]


def test_bloch_frames_are_the_adjoint_of_the_exact_propagators():
    gone = {"frame_transport", "_project_rotation", "smooth_v_rows_with_cumulative"}
    assert {module for module, tree in MODULES.items() if _names(tree) & gone} == set()
    assert not _calls({"svd", "cross"})
    assert set(_calls({"Transport"})) == {
        ("evolution", "exact_transport"),
        ("evolution", "phase_transport"),
        ("evolution", "wkb_deviation_by_generator"),
    }
    bloch = {key: n for key, n in _calls({"evolve_grid", "cointegrate",
                                          "exact_transport"}).items()
             if key[0] == "bloch"}
    assert bloch == {("bloch", "propagate_bloch"): 1, ("bloch", "v_trace_formula"): 1,
                     ("bloch", "v_rows_with_cumulative"): 2}
    assert _calls({"rotation_generator"}) == Counter({("bloch", "_frames_at"): 2})


def test_one_mode_transport_steps_on_python_scalars():
    # the one-mode rhs, the hot loop of every one-mode sweep, makes no numpy
    # call; exact_transport alone picks the form, from the stack size
    def stack_size_choice(node):
        return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and "len(modes)" in ast.unparse(node.test))

    assert set(_sites(stack_size_choice)) == {("evolution", "exact_transport")}
    (choice,) = [node for node in ast.walk(_function("evolution", "exact_transport"))
                 if stack_size_choice(node)]
    assert ast.unparse(choice.test) == "len(modes) == 1"
    scalar, stacked = ([node for node in branch
                        if isinstance(node, ast.FunctionDef) and node.name == "rhs"]
                       for branch in (choice.body, choice.orelse))
    assert len(scalar) == len(stacked) == 1
    assert "np" not in _names(scalar[0])


def test_levin_calls_the_integrand_once_per_round():
    calls = Counter({key: n for key, n in _calls({"integrand"}).items()
                     if key[0] == "levin"})
    assert calls == Counter({("levin", "levin_integral.panel"): 1})
    panel = _function("levin", "levin_integral.panel")
    assert not [node for node in ast.walk(panel)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]


def test_one_panel_walk():
    def budget_raise(node):
        return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ConvergenceFailure"
                and "MAX_PANELS" in _names(node.exc))

    assert set(_sites(budget_raise)) == {("model", "panel_walk")}
    assert set(_sites(lambda node: isinstance(node, ast.While))) == {
        ("stepper", "integrate"), ("model", "panel_walk")}
    for fn in (MODULES["levin"], _function("model", "smooth_integrals")):
        assert not [node for node in ast.walk(fn) if isinstance(node, ast.While)]


def test_projector_takes_one_levin_walk_per_image():
    assert _calls({"levin_integral"}) == Counter({("projector", "_segments"): 1})
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not _calls_in(loops, _function("projector", "_segments"), {"levin_integral"})


def test_wkb_routes_take_one_call_per_grid():
    assert set(_calls({"wkb_propagator_raw"})) == {("evolution", "wkb_propagators")}
    assert _calls({"wkb_propagators"}) == Counter({("evolution", "wkb_evolve"): 1,
                                                   ("evolution", "wkb_deviations"): 1})
    assert _calls({"wkb_deviations"}) == Counter({
        ("evolution", "wkb_deviation"): 1,
        ("evolution", "wkb_deviation_grid"): 1,
        ("projector", "_segments"): 1,
    })
    assert not _calls({"wkb_evolve", "wkb_deviation"})
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for module, where in _calls({"wkb_propagators", "wkb_deviations"}):
        assert not _calls_in(loops, _function(module, where),
                             {"wkb_propagators", "wkb_deviations"}), where


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_function_local_package_import(module):
    local = []
    for fn in ast.walk(MODULES[module]):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)) \
                        and _package_targets(node):
                    local.append(f"{fn.name}:{node.lineno}")
    assert local == []


def test_module_import_graph_is_acyclic():
    graph = {module: {target for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))
                      for target in _package_targets(node)}
             for module, tree in MODULES.items()}
    assert set().union(*graph.values()) <= set(MODULES)
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {exc.args[1]}")


def test_scenario_is_a_piecewise_constant_scale():
    assert issubclass(Scenario, PiecewiseConstantScale)


def test_no_scenario_conversion():
    names = {"to_scale", "is_rotation_scenario"}
    found = [(module, node.lineno) for module, tree in MODULES.items()
             for node in ast.walk(tree)
             if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name in names)
             or (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.Name) and node.id in names)]
    assert found == []


def test_no_scale_isinstance():
    # the scale kind is read from ``is_piecewise``
    kinds = {"Scenario", "PiecewiseConstantScale", "SmoothScale"}

    def of_scale(call):
        return any(getattr(n, "id", getattr(n, "attr", None)) in kinds
                   for n in ast.walk(call.args[1]))

    assert _calls({"isinstance"}, of_scale) == Counter()


@pytest.mark.parametrize("scen", [
    build_six_segment(),
    perturb_scenario(build_six_segment(), 3, 0.01),
    make_scenario(Mode(lam=-2.5, mass=0.7, tau0=0.0), [(2.0, 0.8), (0.4, 1.3)]),
], ids=["six_segment", "six_perturbed", "two_segments"])
def test_scenario_frames_and_rows_are_its_plain_scale(scen):
    plain = PiecewiseConstantScale(scen.breakpoints, scen.values)
    taus = np.linspace(0.0, scen.tau_end, 13)
    for got, want in zip(propagate_bloch(scen.mode, scen, taus),
                         propagate_bloch(scen.mode, plain, taus)):
        assert np.array_equal(got.w, want.w)
    assert np.array_equal(v_rows_with_cumulative(scen.mode, scen, taus),
                          v_rows_with_cumulative(scen.mode, plain, taus))


def _function(module, name):
    """The ``def`` of ``name`` (``Class.method`` for a method) in ``module``."""
    scope = MODULES[module]
    for part in name.split("."):
        scope = next(node for node in scope.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and node.name == part)
    return scope


def _compared_strings(fn):
    """String constants that ``fn`` compares anything against."""
    return {node.value for cmp in ast.walk(fn) if isinstance(cmp, ast.Compare)
            for node in [cmp.left, *cmp.comparators]
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_schema_scale_kinds_are_the_table():
    scale = SCENARIO_SCHEMA["properties"]["scale"]
    assert scale["properties"]["kind"]["enum"] == list(SCALE_KINDS)
    assert [branch["if"]["properties"]["kind"]["const"]
            for branch in scale["allOf"]] == list(SCALE_KINDS)


def test_parse_scenario_compares_no_kind_name():
    assert _compared_strings(_function("scenario_io", "parse_scenario")) == set()


def test_only_study_reads_the_output_format():
    readers = {fn.name for fn in MODULES["cli"].body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "format"}
    assert readers == {"cmd_study"}  # its stderr summary is CSV-only


def test_one_study_entry_per_kind():
    assert set(STUDIES) == set(StudyKind) and len(STUDIES) == len(StudyKind)


def test_lambda_kinds_of_schema_and_resolve_agree():
    schema = RUN_OPTIONS["study"]["properties"]["lambda"]["properties"]["kind"]
    assert schema["enum"] == list(LAMBDA_KINDS)
    assert _compared_strings(_function("studies", "LambdaSpec.resolve")) == set()
    for kind, (field, _) in LAMBDA_KINDS.items():
        assert LambdaSpec(kind=kind).resolve(10.0) > 0
        assert field in LambdaSpec.__dataclass_fields__


def test_each_value_has_one_home():
    variant = RUN_OPTIONS["project"]["properties"]["variant"]
    assert variant["enum"] == list(PROJECTORS)
    assert _compared_strings(_function("cli", "cmd_project")) == set()
    for project, reads in PROJECTORS.values():
        params = inspect.signature(project).parameters
        assert set(reads) == params.keys() & {"quad_tol", "gap_tol"}, project.__name__
    gone = {"PWkbVariant", "WkbFrame", "wkb_frame", "recompute_l1_norm"}
    assert {module for module, tree in MODULES.items() if _names(tree) & gone} == set()
    assert [f.name for f in dataclasses.fields(model.TestFunction)] == ["support", "amplitude"]
    assert [f.name for f in dataclasses.fields(StudyRecord)] == [
        "m_rmax", "lam", "measured", "envelope", "passed"]
    assert [f.name for f in dataclasses.fields(model.Unitary2)] == ["matrix", "defect"]
    assert [f.name for f in dataclasses.fields(model.Hermitian2)] == ["matrix"]
    assert "entries" not in _names(MODULES["model"])


def _names(node):
    """Every name, attribute, definition and imported name under ``node``."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.FunctionDef,
                              ast.ClassDef, ast.alias))}


def test_no_pi_bound_outside_the_scale_types():
    schema = next(node for node in MODULES["scenario_io"].body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["SCENARIO_SCHEMA"])
    for node in [schema, *(_function("model", name) for name in
                           ("Mode", "TestFunction", "bump", "complex_bump"))]:
        assert "pi" not in _names(node), getattr(node, "name", "SCENARIO_SCHEMA")
    tau0 = SCENARIO_SCHEMA["properties"]["mode"]["properties"]["tau0"]
    assert tau0 == {"type": "number", "minimum": 0}


def test_one_domain_rule_and_one_lifetime_window():
    gone = {"check_mode_scale", "_choose_cutoffs"}
    assert {module for module, tree in MODULES.items() if _names(tree) & gone} == set()
    imported = {alias.name for node in ast.walk(MODULES["cfs"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_choose_cutoffs" not in imported
    tails = _sites(lambda node: isinstance(node, ast.Attribute)
                   and node.attr in {"tail_below", "tail_above"})
    assert set(tails) == {("model", "window")}  # SmoothScale.window
    assert not hasattr(PiecewiseConstantScale, "tail_below")
    assert set(_calls({"window"})) == {
        ("projector", "signature_operator"),
        ("projector", "signature_operator_wkb"),
        ("projector", "fermionic_projector_apply"),
        ("projector", "wkb_scalar_integrals"),
        ("cfs", "correlation_trace_lifetime_integral"),
    }
    # SmoothScale.window and PiecewiseConstantScale.window, and the entry
    # points that take a quadrature tolerance without reading it on every path
    def passes_quad_tol(call):
        return len(call.args) > 1 or any(k.arg == "quad_tol" for k in call.keywords)

    assert _calls({"check_tolerances"}, passes_quad_tol) == Counter({
        ("model", "window"): 2,
        ("cfs", "build_family"): 1,
        ("cfs", "negative_subspace_family"): 1,
        ("studies", "run_study"): 1,
    })
    params = {arg.arg for fn in ast.walk(MODULES["projector"])
              if isinstance(fn, ast.FunctionDef) for arg in fn.args.args}
    assert not params & {"closed_form", "lifetime_integral"}


def test_each_input_rule_has_one_home():
    tolerance_check = re.compile(r"_?check_\w*tol")
    defined = _sites(lambda node: isinstance(node, ast.FunctionDef)
                     and tolerance_check.match(node.name))
    assert defined == Counter({("model", "check_tolerances"): 1})
    imported = {alias.name for tree in MODULES.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if tolerance_check.match(alias.name)}
    assert imported == {"check_tolerances"}
    assert _calls({"setflags"}) == Counter({("model", "frozen_array"): 1})
    reads = _sites(lambda node: isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                   and "HERMITICITY_TOL" in {getattr(node, "id", None),
                                             getattr(node, "attr", None),
                                             getattr(node, "name", None)})
    # the definition stores it; the one load is in check_hermitian
    assert reads == Counter({("model", ""): 1, ("model", "check_hermitian"): 1})


def _imports(package):
    """Matcher of the import statements that name ``package`` or a module of it."""
    def match(node):
        names = ([node.module or ""] if isinstance(node, ast.ImportFrom) else
                 [a.name for a in node.names] if isinstance(node, ast.Import) else [])
        return any(name.split(".")[0] == package for name in names)

    return match


def test_no_module_imports_scipy():
    assert _sites(_imports("scipy")) == Counter()


def test_no_module_imports_jsonschema():
    assert _sites(_imports("jsonschema")) == Counter()


def test_process_pool_is_imported_where_it_starts():
    assert _sites(_imports("concurrent")) == Counter({("studies", "run_study"): 1})
