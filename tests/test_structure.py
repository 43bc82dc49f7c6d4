"""Structure of the package, read from its source with ``ast``.

* The adaptive stepper has one caller, ``evolution.cointegrate``; the
  stepper module's own internals aside, nothing else calls ``integrate``
  or ``integrate_with_checkpoints``.
* ``evolution.propagators`` is the one exact-propagator sweep: its callers
  are ``evolve``, ``evolve_grid``, ``exact_transport``'s ``at`` and
  ``cfs.members_at``, one call each, and it alone chains the piecewise
  segment products.
* No function body imports a module of the package, and the module import
  graph has no cycle.
* A rotation-count ``Scenario`` is a ``PiecewiseConstantScale`` and nothing
  more: no conversion to a plain scale, no scenario fork but the one that
  picks ``bloch``'s default end, and the same frames and rows as the plain
  scale with its breakpoints and values.
"""

import ast
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import numpy as np
import pytest

from diracsea.bloch import (Scenario, build_six_segment, make_scenario,
                            perturb_scenario, propagate_bloch,
                            v_rows_with_cumulative)
from diracsea.model import Mode, PiecewiseConstantScale

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracsea"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _calls(names, accept=lambda call: True):
    """Counter of (module, enclosing function path) for calls of ``names``.

    Only the calls ``accept`` returns true for are counted.
    """
    found = Counter()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = where + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names and accept(node):
                found[(module, ".".join(where))] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, tree in MODULES.items():
        visit(tree, module, ())
    return found


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
    calls = _calls({"integrate", "integrate_with_checkpoints"})
    callers = {key for key in calls if key[0] != "stepper"}
    assert callers == {("evolution", "cointegrate")}


def test_propagators_is_the_only_exact_sweep():
    assert _calls({"propagators"}) == Counter({
        ("evolution", "exact_transport.at"): 1,
        ("evolution", "evolve"): 1,
        ("evolution", "evolve_grid"): 1,
        ("cfs", "members_at"): 1,
    })
    assert set(_calls({"_piecewise_propagate"})) == {("evolution", "propagators")}
    assert set(_calls({"segment_propagator"})) == {("evolution", "_piecewise_propagate")}


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


def test_one_scenario_isinstance():
    def of_scenario(call):
        return any(getattr(n, "id", getattr(n, "attr", None)) == "Scenario"
                   for n in ast.walk(call.args[1]))

    assert _calls({"isinstance"}, of_scenario) == Counter({("cli", "cmd_bloch"): 1})


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
