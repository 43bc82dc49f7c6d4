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
"""

import ast
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracsea"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _calls(names):
    """Counter of (module, enclosing function path) for calls of ``names``."""
    found = Counter()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = where + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
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
