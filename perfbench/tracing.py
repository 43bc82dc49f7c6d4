"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions named in ``TRACED`` at every binding
across ``diracsea``'s modules.  The modules import names directly (for
example ``projector.integrate`` or ``cfs.evolve``), so patching only the
defining module would miss most calls.  Nothing under ``src/`` changes:
the wrappers are installed for the traced passes and removed afterwards.

Each wrapped call records one span: name, start, end, parent span, task
id and self time (duration minus the time covered by its child spans).
Spans are kept in memory and written out when the benchmark ends.

``stepper.integrate`` gets a special wrapper.  It passes a ``StepStats``
through (the caller's own, when it supplied one, read as before/after
deltas), and it times the ``rhs`` and ``post_accept`` callables it
receives.  Spans opened inside those callables keep the integrate span as
parent but do not count again towards its self time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import sys
from time import perf_counter

TRACED = {
    "stepper": ("integrate",),
    "model": ("polar_unitary", "unitarity_defect"),
    "evolution": ("evolve", "evolve_grid", "wkb_evolve", "accumulated_phase"),
    "projector": ("signature_operator", "signature_operator_wkb", "k_m_apply",
                  "k_wkb_apply", "fermionic_projector_apply", "p_wkb_apply",
                  "wkb_signature_leading_term"),
    "cfs": ("negative_subspace_family", "build_family", "local_correlation",
            "regularized_kernel", "kernel_apply", "causal_classify",
            "correlation_trace_lifetime_integral"),
    "bloch": ("v_components", "propagate_bloch",
              "scenario_v_rows_with_cumulative"),
    "scenario_io": ("load_scenario",),
    "cli": ("main",),
    "studies": ("run_study",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

# Stepper counters recorded per integrate call, in this order.
STEP_FIELDS = ("accepted", "rejected", "rhs_evals", "rhs_s", "hook_s")


def package_modules():
    """Every loaded ``diracsea`` module, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "diracsea"
                                    or name.startswith("diracsea."))]


def installed_wrappers():
    """(module, attribute) pairs that currently hold a tracer wrapper."""
    found = []
    for mod in package_modules():
        for attr, val in vars(mod).items():
            if getattr(val, "__perfbench_original__", None) is not None:
                found.append((mod.__name__, attr))
    return found


class Tracer:
    """In-memory span recorder; install with ``with tracer.installed():``."""

    def __init__(self):
        self.task_id = -1
        # span rows: (index, name_id, start, end, parent, task, self_s)
        self.spans = []
        # integrate rows: (span index, task, *STEP_FIELDS)
        self.steps = []
        self._next = 0
        self._stack = []
        self._patched = []
        self._observers = {}

    def observe(self, name: str, callback):
        """Call ``callback(args, kwargs, result)`` after each return of ``name``."""
        self._observers.setdefault(name, []).append(callback)

    # -- installation -------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install for the ``with`` block; the originals come back after it."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        import diracsea  # noqa: F401  (loads every module of the package)

        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        by_name = {m.__name__: m for m in mods}
        for name_id, name in enumerate(SPAN_NAMES):
            layer, fn = name.split(".")
            original = getattr(by_name[f"diracsea.{layer}"], fn)
            if name == "stepper.integrate":
                wrapper = self._wrap_integrate(name_id, original)
            else:
                wrapper = self._wrap(name_id, name, original)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- wrappers -----------------------------------------------------

    def _open(self):
        idx = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        frame = [idx, 0.0]
        self._stack.append(frame)
        return idx, parent, frame

    def _close(self, name_id, idx, parent, frame, t0, t1, covered):
        self._stack.pop()
        if parent is not None:
            parent[1] += t1 - t0
        self.spans.append((idx, name_id, t0, t1,
                           parent[0] if parent is not None else -1,
                           self.task_id, (t1 - t0) - covered))

    def _wrap(self, name_id, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent, frame = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._close(name_id, idx, parent, frame, t0, t1, frame[1])
            for callback in tracer._observers.get(name, ()):
                callback(args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _wrap_integrate(self, name_id, fn):
        from diracsea.stepper import StepStats

        tracer = self

        @functools.wraps(fn)
        def wrapper(rhs, t0, t1, y0, rtol, atol, max_step=None,
                    post_accept=None, stats=None):
            stats = stats if stats is not None else StepStats()
            before = (stats.accepted, stats.rejected, stats.rhs_evaluations)
            timing = [0.0, 0.0]
            idx, parent, frame = tracer._open()
            # Spans opened inside rhs/hook get this frame as parent; their
            # time is already inside the callable's timing.
            sink = [idx, 0.0]

            def timed_rhs(t, y):
                tracer._stack.append(sink)
                s = perf_counter()
                try:
                    return rhs(t, y)
                finally:
                    timing[0] += perf_counter() - s
                    tracer._stack.pop()

            def timed_hook(t, y):
                tracer._stack.append(sink)
                s = perf_counter()
                try:
                    return post_accept(t, y)
                finally:
                    timing[1] += perf_counter() - s
                    tracer._stack.pop()

            start = perf_counter()
            try:
                return fn(timed_rhs, t0, t1, y0, rtol, atol, max_step=max_step,
                          post_accept=timed_hook if post_accept is not None else None,
                          stats=stats)
            finally:
                end = perf_counter()
                tracer._close(name_id, idx, parent, frame, start, end,
                              frame[1] + timing[0] + timing[1])
                tracer.steps.append((idx, tracer.task_id,
                                     stats.accepted - before[0],
                                     stats.rejected - before[1],
                                     stats.rhs_evaluations - before[2],
                                     timing[0], timing[1]))

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- output -------------------------------------------------------

    def write(self, path):
        """Write spans and stepper rows as gzip-compressed JSON."""
        doc = {"names": list(SPAN_NAMES),
               "span_fields": ["index", "name", "start", "end", "parent",
                               "task", "self_s"],
               "spans": sorted(self.spans),
               "step_fields": ["span", "task", *STEP_FIELDS],
               "steps": self.steps}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_totals(tracer: Tracer):
    """{name: [calls, busy_s, self_s]} over every recorded span."""
    totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for _, name_id, t0, t1, _, _, self_s in tracer.spans:
        row = totals[SPAN_NAMES[name_id]]
        row[0] += 1
        row[1] += t1 - t0
        row[2] += self_s
    return totals


def descendant_counts(tracer: Tracer, ancestor: str, name: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    parent_of = {}
    kind_of = {}
    for idx, name_id, _, _, parent, _, _ in tracer.spans:
        parent_of[idx] = parent
        kind_of[idx] = SPAN_NAMES[name_id]
    count = 0
    for idx, kind in kind_of.items():
        if kind != name:
            continue
        p = parent_of[idx]
        while p != -1:
            if kind_of.get(p) == ancestor:
                count += 1
                break
            p = parent_of.get(p, -1)
    return count


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 when undefined."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
