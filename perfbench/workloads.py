"""The benchmark's workloads: seeded inputs, reference checks, closed-loop runner.

Every workload is a fixed list of tasks built from ``--seed``.  The inputs
come from a fixed pool, so that ``refgen.py`` can compute a tight-tolerance
reference for every input the seed can choose.  A task is one call into
``diracsea`` through its public functions or ``cli.main``.  Tasks run one
after another in one process (closed loop, one client, ``jobs=1``).

A task fails when it raises an unexpected error, when its output misses
the reference by more than ``REL_TOL`` relative to the reference norm, or
when an expected ``DegenerateSignature`` does not happen.  A failure is
counted and the pass goes on.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from diracsea import (DegenerateSignature, Mode, bump, cfs, cli, dust_scale,
                      evolve, studies)
from diracsea.studies import LambdaSpec, ProbeSpec, StudyKind

from tracing import SPAN_NAMES, descendant_counts, loglog_slope

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"
OUT_DIR = BENCH_DIR / "out"

#: A task fails when its output misses the reference by more than this,
#: relative to the reference norm.
REL_TOL = 1e-7
TAU0 = math.pi / 2
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# ---------------------------------------------------------------- helpers


def to_json(a):
    """Complex arrays as nested [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [to_json(x) for x in a]


def from_json(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def rel_error(value, ref) -> float:
    """max |value - ref| / max |ref| (max norm over all entries)."""
    value, ref = np.asarray(value), np.asarray(ref)
    if value.shape != ref.shape:
        return math.inf
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    diff = float(np.max(np.abs(value - ref))) if ref.size else 0.0
    return diff / scale if scale > 0 else diff


def load_refs(name: str) -> dict:
    with gzip.open(REFS_DIR / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def key(*parts) -> str:
    return "|".join(f"{p:g}" if isinstance(p, float) else str(p) for p in parts)


@dataclass
class Task:
    """One unit of work: a call, and a check of its output.

    ``check`` returns the relative error against the reference; ``layer``
    names the layer whose ``err_max`` that error feeds.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], float]
    layer: str
    meta: dict = field(default_factory=dict)
    expect_degenerate: bool = False


@dataclass
class TaskResult:
    label: str
    latency: float
    error: float
    failed: bool
    reason: str
    #: When the task started and ended (``perf_counter``).
    start: float = 0.0
    end: float = 0.0
    #: ``latency`` in reference seconds (see ``calibrate.py``).
    scaled: float = 0.0


@dataclass
class PassResult:
    wall: float  # time in the task loop, calibration bursts excluded
    cpu: float
    results: list
    elapsed: float = 0.0  # wall time of the pass, bursts included


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def run_pass(tasks, tracer=None, sampler=None) -> PassResult:
    """Run every task once, in order; check outputs after the timed loop.

    With a running ``sampler``, the time of the calibration bursts it ran
    is taken out of every latency and of ``wall``.
    """
    outputs = []
    cpu0 = _cpu()
    start = perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = i
        t0 = perf_counter()
        try:
            out = ("ok", task.call())
        except DegenerateSignature as exc:
            out = ("degenerate", exc)
        except Exception as exc:  # counted as a failed task, never fatal
            out = ("error", f"{type(exc).__name__}: {exc}")
        outputs.append((t0, perf_counter(), out))
    end = perf_counter()
    cpu = _cpu() - cpu0
    if tracer is not None:
        tracer.task_id = -1

    def spent(t0, t1):
        return sampler.spent(t0, t1) if sampler is not None else 0.0

    results = []
    for task, (t0, t1, out) in zip(tasks, outputs):
        r = judge(task, t1 - t0 - spent(t0, t1), out)
        r.start, r.end, r.scaled = t0, t1, r.latency
        results.append(r)
    return PassResult(end - start - spent(start, end), cpu, results,
                      end - start)


def judge(task: Task, latency: float, out) -> TaskResult:
    kind, value = out
    if kind == "error":
        return TaskResult(task.label, latency, math.inf, True, value)
    if kind == "degenerate":
        if task.expect_degenerate:
            return TaskResult(task.label, latency, 0.0, False, "")
        return TaskResult(task.label, latency, math.inf, True,
                          f"unexpected DegenerateSignature: {value}")
    if task.expect_degenerate and not task.meta.get("cli"):
        return TaskResult(task.label, latency, math.inf, True,
                          "expected DegenerateSignature was not raised")
    try:
        err = float(task.check(value))
    except Exception as exc:  # a malformed output is a failed check
        return TaskResult(task.label, latency, math.inf, True,
                          f"check raised {type(exc).__name__}: {exc}")
    if not err <= REL_TOL:
        return TaskResult(task.label, latency, err, True,
                          f"error {err:.3e} > {REL_TOL:g}")
    return TaskResult(task.label, latency, err, False, "")


class Workload:
    """Base: ``tasks`` is the fixed task list of one pass."""

    name = ""

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs
        self.tasks = []

    def warmup(self):
        raise NotImplementedError

    def observe(self, tracer, errors: dict):
        """Register observers that compare layer outputs with references."""

    def layer_metrics(self, tracer) -> dict:
        """Workload-specific per-layer metrics from a traced run."""
        return {}


# ------------------------------------------------------ envelope_study

ENV_GRID = (10.0, 100.0, 300.0)
ENV_KINDS = ("p_wkb_bound", "leading_term_bound")
ENV_LAMBDAS = (1.5, -1.5, 2.5, -2.5)
_H = math.sqrt(0.5)
ENV_PROBES = (
    ((1.0, 2.0), (1.0, 0.0)),
    ((1.1, 2.1), (0.0, 1.0)),
    ((0.9, 1.9), (_H, 1j * _H)),
)


def env_probe(index: int) -> ProbeSpec:
    support, direction = ENV_PROBES[index]
    return ProbeSpec(support=support,
                     direction=tuple(complex(d) for d in direction))


class EnvelopeStudy(Workload):
    name = "envelope_study"

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        rng = random.Random(seed)
        self.lam = rng.choice(ENV_LAMBDAS)
        self.probe_index = rng.randrange(len(ENV_PROBES))
        probe = env_probe(self.probe_index)
        for kind in ENV_KINDS:
            for m in ENV_GRID:
                if kind == "p_wkb_bound":
                    ref = refs["points"][key(kind, self.lam, m, self.probe_index)]
                else:
                    ref = refs["points"][key(kind, self.lam, m)]
                self.tasks.append(Task(
                    label=f"{kind}@{m:g}",
                    call=self._study(kind, m, probe),
                    check=self._check(ref),
                    layer="studies",
                    meta={"m_rmax": m}))

    def _study(self, kind, m, probe):
        lam_spec = LambdaSpec(kind="fixed", value=self.lam)
        study_kind = StudyKind(kind)
        probe = probe if kind == "p_wkb_bound" else None
        return lambda: studies.run_study(study_kind, [m], lam_spec=lam_spec,
                                         probe=probe, jobs=1)

    @staticmethod
    def _check(ref):
        def check(result):
            return abs(result.records[0].measured - ref["measured"]) / ref["norm"]
        return check

    def warmup(self):
        studies.run_study(StudyKind.LEADING_TERM_BOUND, [ENV_GRID[0]],
                          lam_spec=LambdaSpec(value=self.lam))

    def observe(self, tracer, errors):
        prims = self.refs["primitives"]

        def record(ref_key, value):
            ref = prims.get(ref_key)
            if ref is not None:
                err = rel_error(value, from_json(ref))
                errors["projector"] = max(errors.get("projector", 0.0), err)

        def signature(tag):
            def cb(args, kwargs, result):
                mode, scale = args[0], args[1]
                record(key(tag, mode.lam, mode.mass, scale.r_max),
                       result.s.matrix)
            return cb

        def apply(tag):
            def cb(args, kwargs, result):
                mode, scale, phi = args[0], args[1], args[2]
                record(key(tag, mode.lam, scale.r_max, phi.support[0]),
                       result.value)
            return cb

        def leading(args, kwargs, result):
            mode, scale = args[0], args[1]
            record(key("lead", mode.lam, mode.mass, scale.r_max), result.matrix)

        tracer.observe("projector.signature_operator", signature("S"))
        tracer.observe("projector.signature_operator_wkb", signature("Sw"))
        tracer.observe("projector.k_m_apply", apply("k"))
        tracer.observe("projector.k_wkb_apply", apply("kw"))
        tracer.observe("projector.wkb_signature_leading_term", leading)

    def layer_metrics(self, tracer):
        acc = {}
        for _, task, accepted, *_ in tracer.steps:
            if task >= 0:
                acc[task] = acc.get(task, 0) + accepted
        xs = [self.tasks[i].meta["m_rmax"] for i in sorted(acc)]
        ys = [acc[i] for i in sorted(acc)]
        return {"stepper.accepted_slope": loglog_slope(xs, ys)}


# -------------------------------------------------------- mode_family

MF_LAMBDAS = (1.5, -1.5, 2.5, -2.5, 3.5, -3.5, 4.5, -4.5)
#: One low scale for every seed: many short integrations.  A seed-drawn
#: choice between 10 and 30 would make the pass time bimodal across seeds.
MF_SCALES = (10.0,)
MF_TAUS = 12
MF_KERNEL_PAIRS = ((0.8, 2.2), (1.2, 2.6))
MF_VARIANTS = 3


def mf_modes():
    return tuple(Mode(lam=lam, mass=1.0, tau0=TAU0) for lam in MF_LAMBDAS)


def mf_variant(index: int) -> dict:
    """The inputs of pool entry ``index``.

    Entries differ in the family members, the probe direction and a small
    shift of the tau grid; the kernel points and the probe support are
    shared, so that every entry costs about the same.
    """
    rng = random.Random(1000 + index)
    offset = rng.uniform(-0.03, 0.03)
    taus = [0.3 + i * 2.55 / (MF_TAUS - 1) + offset for i in range(MF_TAUS)]
    spinors = [[[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(2)]
               for _ in range(2 * len(MF_LAMBDAS))]
    direction = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(2)]
    return {"taus": taus, "spinors": spinors, "support": (1.0, 2.0),
            "direction": direction, "kernel_pairs": MF_KERNEL_PAIRS,
            "apply_tau": 1.3}


def mf_members(variant: dict):
    """Full-fiber members: two seeded spinors per mode (not orthonormal)."""
    return [(j // 2, np.array([complex(*pair[0]), complex(*pair[1])]))
            for j, pair in enumerate(variant["spinors"])]


def mf_probe(variant: dict):
    d = np.array([complex(*c) for c in variant["direction"]])
    return bump(variant["support"], d / np.linalg.norm(d))


def block_entries(matrix, mode_of_member):
    """The within-mode entries of a block-diagonal family matrix."""
    m = np.asarray(matrix)
    return np.array([m[j, k] for j, mj in enumerate(mode_of_member)
                     for k, mk in enumerate(mode_of_member) if mj == mk])


def _family_members_error(family, ref_spinors) -> float:
    """Phase-free comparison of one-member-per-mode families (projectors)."""
    err = 0.0
    for mem, ref in zip(family.members, ref_spinors):
        r = from_json(ref)
        err = max(err, rel_error(np.outer(mem.spinor, mem.spinor.conj()),
                                 np.outer(r, r.conj())))
    return err if len(family.members) == len(ref_spinors) else math.inf


class ModeFamily(Workload):
    name = "mode_family"

    def __init__(self, seed, refs):
        super().__init__(seed, refs)
        rng = random.Random(seed)
        self.variant_index = rng.randrange(MF_VARIANTS)
        variant = mf_variant(self.variant_index)
        modes = mf_modes()
        members = mf_members(variant)
        phi = mf_probe(variant)
        for m in MF_SCALES:
            self._add_scale(m, modes, members, phi, variant,
                            refs["scales"][key(m)],
                            refs["variants"][key(self.variant_index, m)])

    def _add(self, label, call, check):
        self.tasks.append(Task(label=label, call=call, check=check,
                               layer="cfs"))

    def _add_scale(self, m, modes, members, phi, variant, sref, vref):
        st = {}  # outputs that later tasks of the pass take as inputs
        scale = dust_scale(m)

        def store(name, fn):
            def call():
                st[name] = fn()
                return st[name]
            return call

        def first():
            st.clear()  # later tasks must not see a previous pass's outputs
            st["neg"] = cfs.negative_subspace_family(modes, scale)
            return st["neg"]

        self._add(f"negative_subspace_family@{m:g}", first,
                  lambda fam: _family_members_error(fam, sref["negative_spinors"]))
        self._add(f"build_family@{m:g}",
                  store("full", lambda: cfs.build_family(
                      modes, scale, members, require_negative_subspace=False)),
                  lambda fam: rel_error(fam.gram, from_json(vref["gram"])))
        self._add(f"orthonormalize@{m:g}",
                  store("ortho", lambda: cfs.orthonormalize(st["full"])),
                  lambda fam: rel_error([mem.spinor for mem in fam.members],
                                        from_json(vref["orthonormal"])))
        n = len(variant["taus"])
        for i, tau in enumerate(variant["taus"]):
            ref = from_json(vref["correlations"][i])
            self._add(f"local_correlation@{m:g}#{i}",
                      store(("corr", i),
                            lambda tau=tau: cfs.local_correlation(st["ortho"], tau)),
                      lambda op, ref=ref: rel_error(
                          block_entries(op.matrix, op.mode_of_member), ref))
            # Each pair is classified as soon as both operators exist, so
            # that the short calls spread over the pass instead of running
            # within one fraction of a second of the host's speed.
            pairs = [(i, i)] + [p for j in range(i) for p in ((i, j), (j, i))]
            for a, b in pairs:
                expected = vref["classes"][a * n + b]
                self._add(f"causal_classify@{m:g}#{a},{b}",
                          lambda a=a, b=b: cfs.causal_classify(
                              st[("corr", a)], st[("corr", b)]),
                          lambda cls, e=expected: 0.0 if cls.value == e else math.inf)
        for i, (x, y) in enumerate(variant["kernel_pairs"]):
            ref = from_json(vref["kernels"][i])
            self._add(f"regularized_kernel@{m:g}#{i}",
                      lambda x=x, y=y: cfs.regularized_kernel(st["ortho"], x, y),
                      lambda blocks, ref=ref: rel_error(
                          [blocks[k] for k in sorted(blocks)], ref))
        for k in range(len(modes)):
            ref = from_json(vref["kernel_apply"][k])
            self._add(f"kernel_apply@{m:g}#{k}",
                      lambda k=k: cfs.kernel_apply(st["ortho"], variant["apply_tau"],
                                                   phi, k),
                      lambda vec, ref=ref: rel_error(vec, ref))
        # Checked against minus the sum of the members' signature quadratic
        # forms, which the signature operator computes by another route.
        self._add(f"correlation_trace_lifetime_integral@{m:g}",
                  lambda: cfs.correlation_trace_lifetime_integral(st["neg"]),
                  lambda tr: abs(tr - sref["trace"]) / sref["trace_norm"])

    def warmup(self):
        evolve(mf_modes()[0], dust_scale(MF_SCALES[0]), TAU0, 2.0)

    def observe(self, tracer, errors):
        sigs = self.refs["signatures"]

        def cb(args, kwargs, result):
            mode, scale = args[0], args[1]
            ref = sigs.get(key(mode.lam, scale.r_max))
            if ref is not None:
                err = rel_error(result.s.matrix, from_json(ref))
                errors["projector"] = max(errors.get("projector", 0.0), err)

        tracer.observe("projector.signature_operator", cb)

    def layer_metrics(self, tracer):
        families = sum(1 for s in tracer.spans
                       if s[1] == _NAME_ID["cfs.negative_subspace_family"])
        sigs = descendant_counts(tracer, "cfs.negative_subspace_family",
                                 "projector.signature_operator")
        corrs = sum(1 for s in tracer.spans
                    if s[1] == _NAME_ID["cfs.local_correlation"])
        evolves = descendant_counts(tracer, "cfs.local_correlation",
                                    "evolution.evolve")
        return {
            "cfs.signatures_per_mode":
                sigs / (families * len(MF_LAMBDAS)) if families else 0.0,
            "cfs.evolves_per_tau": evolves / corrs if corrs else 0.0,
        }


# -------------------------------------------------------- rotation_cli

ROT_COMMANDS = (
    ("evolve", "evolve", None),
    ("bloch", "bloch", None),
    ("signature_exact", "signature", False),
    ("signature_wkb", "signature", True),
    ("project_exact", "project", "exact"),
    ("project_wkb", "project", "wkb"),
    ("project_wkb_leading", "project", "wkb_leading"),
)
ROT_RANDOM = 12
ROT_SIX = 4
ROT_TWELVE = 3
ROT_EVOLVE_SAMPLES = 33
ROT_BLOCH_SAMPLES = 241
#: CSV columns that are diagnostics, not answers; not compared.
ROT_DIAGNOSTIC_COLUMNS = ("unitarity_defect", "quad_error_estimate")
ROT_DEGENERATE = "twelve_unperturbed"
#: Left out of the pass: at the default ode_tol this image is a 1.9e-4
#: cancellation residue that misses its reference by 1.6e-7 relative
#: (3e-11 absolute), beyond REL_TOL.  Its reference is still generated.
ROT_LEFT_OUT = {(ROT_DEGENERATE, "project_wkb")}


def rot_pool():
    """Fixed pool of rotation-count scenarios, as slots of twin entries.

    Each entry: id, the mode/scale part of the scenario file and the probe
    support (as fractions of the reach) used by ``project``.  The twins of
    a slot cost the same (lambda of either sign, or a perturbation of
    either sign), so the seed's choice changes the inputs but not the
    amount of work.
    """
    rng = random.Random(2013)
    slots = []

    def support_frac():
        return (round(rng.uniform(0.25, 0.35), 6), round(rng.uniform(0.6, 0.7), 6))

    def entry(entry_id, lam, scale, frac):
        return {"id": entry_id,
                "doc": {"mode": {"lambda": lam, "mass": 1.0, "tau0": 0.0},
                        "scale": scale},
                "support_frac": frac}

    for i in range(ROT_RANDOM):
        lam = rng.choice((1.5, 2.5))
        segs = [[round(rng.uniform(0.5, 6.0), 6), round(rng.uniform(1.0, 3.0), 6)]
                for _ in range(rng.randint(5, 8))]
        frac = support_frac()
        slots.append([entry(f"segments_{i}{v}", sign * lam,
                            {"kind": "segments", "segments": segs}, frac)
                      for v, sign in (("a", 1), ("b", -1))])
    for name, count, n_seg in (("six", ROT_SIX, 6), ("twelve", ROT_TWELVE, 12)):
        for i in range(count):
            index, dp = rng.randrange(n_seg), round(rng.uniform(0.005, 0.05), 6)
            frac = support_frac()
            slots.append([entry(f"{name}_{i}{v}", 1.5,
                                {"kind": "preset", "name": f"{name}_segment",
                                 "perturb": {"index": index, "dp": sign * dp}},
                                frac)
                          for v, sign in (("a", 1), ("b", -1))])
    slots.append([entry(ROT_DEGENERATE, 1.5,
                        {"kind": "preset", "name": "twelve_segment"},
                        support_frac())])
    return slots


def rot_run_block(command: str, option, duration: float, support_frac) -> dict:
    if command == "evolve":
        return {"tau_from": 0.0, "tau_to": duration,
                "samples": ROT_EVOLVE_SAMPLES}
    if command == "bloch":
        return {"samples": ROT_BLOCH_SAMPLES}
    if command == "signature":
        return {"wkb": option}
    reach = min(duration, 3.0)
    return {"variant": option,
            "phi": {"support": [support_frac[0] * reach, support_frac[1] * reach],
                    "direction": [[1.0, 0.0], [0.0, 0.5]], "amplitude": 1.0}}


def rot_scenario_files(entry: dict, directory: Path) -> dict:
    """Write one scenario file per command; {variant name: path}."""
    from diracsea.scenario_io import parse_scenario

    duration = parse_scenario(entry["doc"]).scale.total_duration
    paths = {}
    for name, command, option in ROT_COMMANDS:
        doc = dict(entry["doc"], run=rot_run_block(command, option, duration,
                                                  entry["support_frac"]))
        path = directory / f"{entry['id']}-{name}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        paths[name] = path
    return paths


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_cli_output(code: int, stdout: str, stderr: str) -> dict:
    """The comparable content of one CLI invocation."""
    if code != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else "{}"
        return {"code": code, "error": json.loads(last).get("error")}
    lines = stdout.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    numeric, strings = [], {}
    for c, name in enumerate(header):
        if name in ROT_DIAGNOSTIC_COLUMNS:
            continue
        try:
            numeric.append((name, [float(r[c]) for r in rows]))
        except ValueError:
            strings[name] = [r[c] for r in rows]
    return {"code": 0, "columns": [n for n, _ in numeric],
            "values": [v for _, v in numeric], "strings": strings}


def compare_cli(parsed: dict, ref: dict) -> float:
    if parsed["code"] != ref["code"]:
        return math.inf
    if ref["code"] != 0:
        return 0.0 if parsed["error"] == ref["error"] else math.inf
    if parsed["columns"] != ref["columns"] or parsed["strings"] != ref["strings"]:
        return math.inf
    return rel_error(parsed["values"], ref["values"])


class RotationCli(Workload):
    name = "rotation_cli"

    def __init__(self, seed, refs, directory: Path | None = None):
        super().__init__(seed, refs)
        directory = directory or OUT_DIR / "scenarios"
        directory.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        chosen = [slot[rng.randrange(len(slot))] for slot in rot_pool()]
        rng.shuffle(chosen)
        layers = {"evolve": "evolution", "bloch": "bloch",
                  "signature": "projector", "project": "projector"}
        self.first_file = None
        for entry in chosen:
            entry_id = entry["id"]
            paths = rot_scenario_files(entry, directory)
            for name, command, _ in ROT_COMMANDS:
                if (entry_id, name) in ROT_LEFT_OUT:
                    continue
                ref = refs["outputs"][f"{entry_id}|{name}"]
                argv = [command, "--scenario", str(paths[name])]
                self.first_file = self.first_file or paths["signature_exact"]
                self.tasks.append(Task(
                    label=f"{entry_id}:{name}",
                    call=lambda argv=argv: run_cli(argv),
                    check=lambda out, ref=ref: compare_cli(parse_cli_output(*out), ref),
                    layer=layers[command],
                    meta={"cli": True},
                    expect_degenerate=ref["code"] != 0))

    def warmup(self):
        run_cli(["signature", "--scenario", str(self.first_file)])


WORKLOADS = {w.name: w for w in (EnvelopeStudy, ModeFamily, RotationCli)}
