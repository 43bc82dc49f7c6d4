"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit and record the environment.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones, from passes run under the span tracer.

Set-up (import, seeded inputs, references, one warm-up call) is measured
in this process and in four fresh child processes; ``setup_s`` is the
median of the five.  Then whole passes over the workload's fixed task
list run, one task at a time, for about ``--seconds`` seconds (at least
one pass).  Timings are medians over passes.

The end-to-end times are in reference seconds: each wall time is scaled
by the host's speed, measured with calibration bursts run on a timer
throughout the passes (``calibrate.py``).  The raw wall times are printed
beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "task_p50_s": "s",
                    "task_tail_s": "s", "peak_rss_mb": "MB"}


def bootstrap():
    """Pin BLAS to one thread and put the checkout's ``src/`` first on the path.

    Exits with status 2 when the checkout holds no package source.
    """
    os.environ.update(BLAS_PIN)
    src = ROOT / "src"
    if not (src / "diracsea" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {src}/diracsea\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(1, str(BENCH_DIR))


def setup(workload_name: str, seed: int):
    """Import, build the seeded task list, load references, warm up once."""
    t0 = perf_counter()
    import diracsea  # noqa: F401
    import workloads

    cls = workloads.WORKLOADS[workload_name]
    bench = cls(seed, workloads.load_refs(workload_name))
    bench.warmup()
    return bench, perf_counter() - t0


def child_setup_s(workload_name: str, seed: int) -> tuple:
    """(scaled, raw) set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload_name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_s"]


def tail(latencies):
    """(value, percentile label): the highest percentile with >= 10 tasks beyond.

    With fewer than 11 tasks it is the maximum.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], "max"
    return xs[n - 11], f"p{int(100 * (n - 10) / n)}"


def run_passes(bench, budget_s: float, tracer=None, count=None,
               sampler=None):
    """Whole passes: ``count`` of them, or while another fits in ``budget_s``.

    At least one pass runs.  A pass is expected to take the median of the
    passes so far.  With a ``sampler``, calibration bursts run throughout
    and each task's ``scaled`` latency is in reference seconds.
    """
    import workloads

    start = perf_counter()
    with (sampler.running() if sampler is not None
          else contextlib.nullcontext()):
        passes = [workloads.run_pass(bench.tasks, tracer, sampler)]
        while (len(passes) < count if count is not None else
               perf_counter() - start
               + statistics.median(p.elapsed for p in passes) <= budget_s):
            passes.append(workloads.run_pass(bench.tasks, tracer, sampler))
    if sampler is not None:
        for r in (r for p in passes for r in p.results):
            r.scaled = r.latency * sampler.factor(r.start, r.end)
    return passes


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "diracsea").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "jobs": 1,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setup_samples, passes, field="scaled") -> tuple:
    """(metrics, tail label) from the passes' ``field`` latencies.

    ``run_s`` is the median over passes of the pass's summed task time.
    Each task's latency is its median over passes; ``task_p50_s`` and
    ``task_tail_s`` are taken over those, one value per task of the pass.
    """
    per_task = [statistics.median(getattr(p.results[i], field) for p in passes)
                for i in range(len(passes[0].results))]
    tail_value, tail_label = tail(per_task)
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(
            sum(getattr(r, field) for r in p.results) for p in passes),
        "task_p50_s": statistics.median(per_task),
        "task_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, tail_label


def per_layer(bench, tracer, traced, untraced, observed_errors) -> dict:
    from tracing import SPAN_NAMES, span_totals

    n = len(traced)
    metrics = {}
    totals = span_totals(tracer)
    for name in SPAN_NAMES:
        calls, busy, self_s = totals[name]
        if name == "stepper.integrate":
            continue
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.busy_s"] = busy / n
        metrics[f"{name}.self_s"] = self_s / n

    calls, busy, self_s = totals["stepper.integrate"]
    accepted = sum(s[2] for s in tracer.steps)
    rejected = sum(s[3] for s in tracer.steps)
    rhs_evals = sum(s[4] for s in tracer.steps)
    rhs_s = sum(s[5] for s in tracer.steps)
    hook_s = sum(s[6] for s in tracer.steps)
    metrics.update({
        "stepper.calls": calls / n,
        "stepper.accepted": accepted / n,
        "stepper.rejected": rejected / n,
        "stepper.accept_ratio": accepted / (accepted + rejected)
        if accepted + rejected else 0.0,
        "stepper.rhs_evals": rhs_evals / n,
        "stepper.busy_s": busy / n,
        "stepper.rhs_s": rhs_s / n,
        "stepper.hook_s": hook_s / n,
        "stepper.self_s": self_s / n,
        "stepper.us_per_rhs": 1e6 * rhs_s / rhs_evals if rhs_evals else 0.0,
        "stepper.accepted_slope": 0.0,
    })
    runs = totals["studies.run_study"]
    metrics["studies.grid_point_s"] = runs[1] / runs[0] if runs[0] else 0.0

    errors = dict(observed_errors)
    for p in traced:
        for task, r in zip(bench.tasks, p.results):
            if r.error != float("inf"):
                errors[task.layer] = max(errors.get(task.layer, 0.0), r.error)
    for layer in ("projector", "cfs", "bloch"):
        metrics[f"{layer}.err_max"] = errors.get(layer, 0.0)
    metrics["cfs.signatures_per_mode"] = 0.0
    metrics["cfs.evolves_per_tau"] = 0.0
    metrics.update(bench.layer_metrics(tracer))

    metrics["process.cpu_s"] = statistics.median(p.cpu for p in untraced)
    metrics["process.trace_overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    bench, own_setup = setup(args.workload, args.seed)
    from calibrate import Sampler, scaled_once

    own_scaled = scaled_once(own_setup)
    if args.setup_only:
        print(json.dumps({"setup_s": own_scaled, "raw_s": own_setup}))
        return 0

    import workloads
    from tracing import Tracer

    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "tasks_per_pass": len(bench.tasks)}
    if args.trace:
        untraced = run_passes(bench, args.seconds / 2)
        tracer = Tracer()
        observed = {}
        bench.observe(tracer, observed)
        with tracer.installed():
            traced = run_passes(bench, 0, tracer, count=len(untraced))
        metrics = per_layer(bench, tracer, traced, untraced, observed)
        units = dict(per_layer_metrics())
        all_passes = untraced + traced
        record["accepted_steps_per_task"] = steps_per_task(bench, tracer,
                                                           len(traced))
    else:
        setup_samples = [(own_scaled, own_setup)] + [
            child_setup_s(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
        sampler = Sampler()
        untraced = run_passes(bench, args.seconds, sampler=sampler)
        metrics, tail_label = end_to_end([s for s, _ in setup_samples], untraced)
        raw, _ = end_to_end([r for _, r in setup_samples], untraced, "latency")
        units = END_TO_END_UNITS
        all_passes = untraced
        record["setup_samples_s"] = setup_samples
        record["task_tail_percentile"] = tail_label
        record["raw_wall_s"] = raw
        record["host_speed"] = sampler.speed()
        record["calibration_bursts"] = len(sampler.times)

    flat = [r for p in all_passes for r in p.results]
    failed = [r for r in flat if r.failed]
    record.update({
        "passes": len(untraced),
        "pass_walls_s": [p.wall for p in all_passes],
        "failed_frac": len(failed) / len(flat),
        "failures": [{"task": r.label, "reason": r.reason} for r in failed],
        "metrics": metrics,
    })
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} tasks/pass={len(bench.tasks)}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"task_tail_s is {tail_label} of {len(bench.tasks)} tasks per pass")
        print(f"host burst time {record['host_speed']:.4g} x reference over "
              f"{len(sampler.times)} calibration bursts; raw wall "
              + " ".join(f"{k}={v:.6g}" for k, v in raw.items()
                         if k != "peak_rss_mb"))
    print(f"failed_frac {record['failed_frac']:.6g} ({len(failed)}/{len(flat)})")
    for r in failed[:10]:
        print(f"  failed {r.label}: {r.reason}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")

    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(workloads.OUT_DIR / f"{stem}-spans.json.gz")
    (workloads.OUT_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({
        "correct": not failed, "attempted": len(flat), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def steps_per_task(bench, tracer, passes: int) -> dict:
    """Accepted stepper steps per task label, per pass."""
    out = {}
    for _, task, accepted, *_ in tracer.steps:
        if task >= 0:
            label = bench.tasks[task].label
            out[label] = out.get(label, 0) + accepted / passes
    return out


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in reporting order."""
    from tracing import SPAN_NAMES

    out = [(f"stepper.{field}", unit) for field, unit in (
        ("calls", "count"), ("accepted", "count"), ("rejected", "count"),
        ("accept_ratio", "ratio"), ("rhs_evals", "count"), ("busy_s", "s"),
        ("rhs_s", "s"), ("hook_s", "s"), ("self_s", "s"),
        ("us_per_rhs", "us"), ("accepted_slope", "slope"))]
    for name in SPAN_NAMES:
        if name != "stepper.integrate":
            out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"),
                    (f"{name}.self_s", "s")]
    out += [("projector.err_max", "rel"), ("cfs.signatures_per_mode", "count"),
            ("cfs.evolves_per_tau", "count"), ("cfs.err_max", "rel"),
            ("bloch.err_max", "rel"), ("studies.grid_point_s", "s"),
            ("process.cpu_s", "s"), ("process.trace_overhead_frac", "ratio")]
    return out


if __name__ == "__main__":
    sys.exit(main())
