"""Self-tests of the benchmark: traced counts and failure accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json

import pytest

from run import ROOT, bootstrap, END_TO_END_UNITS, per_layer_metrics, tail

bootstrap()

import numpy as np  # noqa: E402

from diracsea import (DegenerateSignature, Mode, dust_scale, evolve,  # noqa: E402
                      signature_operator)
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import REL_TOL, Task, run_pass  # noqa: E402


def accepted_steps(tracer):
    return sum(row[2] for row in tracer.steps)


# ------------------------------------------------ traced counts see every call

def test_traced_steps_equal_returned_step_count():
    tracer = tracing.Tracer()
    with tracer.installed():
        res = evolve(Mode(1.5, 1.0, np.pi / 2), dust_scale(10.0), 0.5, 2.5)
    assert res.step_count == 280
    assert accepted_steps(tracer) == res.step_count


def test_exact_signature_integrate_calls_and_steps():
    tracer = tracing.Tracer()
    with tracer.installed():
        signature_operator(Mode(1.5, 1.0, np.pi / 2), dust_scale(10.0))
    assert tracing.span_totals(tracer)["stepper.integrate"][0] == 2
    assert accepted_steps(tracer) == 508


def test_signatures_per_mode_is_two():
    bench = workloads.ModeFamily(0, workloads.load_refs("mode_family"))
    nsf = bench.tasks[0]
    assert nsf.label.startswith("negative_subspace_family")
    tracer = tracing.Tracer()
    with tracer.installed():
        nsf.call()
    assert bench.layer_metrics(tracer)["cfs.signatures_per_mode"] == 2.0


def test_untraced_run_leaves_no_wrapper():
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracing.installed_wrappers()
    seen = []
    probe = Task("probe", lambda: seen.append(tracing.installed_wrappers()) or 0.0,
                 lambda out: out, "none")
    result = run_pass([probe])
    assert seen == [[]]
    assert not result.results[0].failed
    assert tracing.installed_wrappers() == []


def test_wrappers_cover_every_binding():
    import diracsea.cfs
    import diracsea.projector

    original = diracsea.projector.signature_operator
    tracer = tracing.Tracer()
    with tracer.installed():
        assert diracsea.cfs.signature_operator is not original
        assert diracsea.signature_operator is not original
        assert diracsea.projector.integrate is diracsea.stepper.integrate
    assert diracsea.cfs.signature_operator is original


# ------------------------------------------------------- failure accounting

@pytest.fixture(scope="module")
def rotation(tmp_path_factory):
    refs = workloads.load_refs("rotation_cli")
    bench = workloads.RotationCli(0, refs, tmp_path_factory.mktemp("scenarios"))
    by_label = {t.label: t for t in bench.tasks}
    return bench, by_label


def test_corrupted_reference_counts_failure_and_run_goes_on(rotation):
    bench, _ = rotation
    good = next(t for t in bench.tasks if t.label.endswith(":signature_exact"))
    entry = good.label.split(":")[0]
    ref = copy.deepcopy(bench.refs["outputs"][f"{entry}|signature_exact"])
    ref["values"][1][0] *= 1.0 + 1e-5
    bad = Task(good.label, good.call,
               lambda out: workloads.compare_cli(workloads.parse_cli_output(*out), ref),
               good.layer, good.meta)
    result = run_pass([bad, good])
    assert [r.failed for r in result.results] == [True, False]
    assert result.results[0].error > REL_TOL
    failed_frac = sum(r.failed for r in result.results) / len(result.results)
    assert failed_frac > 0


def test_unexpected_exception_is_counted_not_raised():
    def boom():
        raise RuntimeError("boom")

    ok = Task("ok", lambda: 1.0, lambda out: 0.0, "none")
    result = run_pass([Task("boom", boom, lambda out: 0.0, "none"), ok])
    assert [r.failed for r in result.results] == [True, False]
    assert "RuntimeError" in result.results[0].reason


def test_expected_degenerate_exit_is_success(rotation):
    _, by_label = rotation
    task = by_label[f"{workloads.ROT_DEGENERATE}:project_exact"]
    assert task.expect_degenerate
    assert not run_pass([task]).results[0].failed


def test_missing_degenerate_exit_is_failure(rotation):
    bench, _ = rotation
    other = next(t for t in bench.tasks if t.label.endswith(":project_exact")
                 and not t.expect_degenerate)
    degenerate_ref = bench.refs["outputs"][f"{workloads.ROT_DEGENERATE}|project_exact"]
    task = Task(other.label, other.call,
                lambda out: workloads.compare_cli(workloads.parse_cli_output(*out),
                                                  degenerate_ref),
                other.layer, other.meta, expect_degenerate=True)
    assert run_pass([task]).results[0].failed


def test_library_degenerate_expectation():
    def degenerate():
        raise DegenerateSignature(-1e-12, 1e-12, 1e-6)

    expected = Task("deg", degenerate, lambda out: 0.0, "none",
                    expect_degenerate=True)
    missing = Task("none", lambda: 1.0, lambda out: 0.0, "none",
                   expect_degenerate=True)
    unexpected = Task("surprise", degenerate, lambda out: 0.0, "none")
    result = run_pass([expected, missing, unexpected])
    assert [r.failed for r in result.results] == [False, True, True]


# ------------------------------------------------------------- calibration

def test_sampler_bursts_are_taken_out_and_scale_each_task():
    import signal

    from calibrate import REF_BURST_S, NEIGHBOURS, Sampler
    from run import run_passes

    class Bench:
        tasks = [Task("spin", lambda: sum(range(2_000_000)), lambda out: 0.0,
                      "none"),
                 Task("micro", lambda: 1.0, lambda out: 0.0, "none")]

    handler = signal.getsignal(signal.SIGALRM)
    sampler = Sampler(period=0.02)
    (result,) = run_passes(Bench, 0.0, sampler=sampler)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    spin, micro = result.results
    inside = sampler.spent(spin.start, spin.end)
    assert inside > 0  # bursts ran during the long task ...
    assert spin.latency == pytest.approx(spin.end - spin.start - inside)
    assert len(sampler.times) >= 2 * NEIGHBOURS + 1
    lo, hi = min(sampler.times), max(sampler.times)
    for r in (spin, micro):  # ... and every task is scaled by some of them
        assert not r.failed
        assert (r.latency * REF_BURST_S / hi * (1 - 1e-12) <= r.scaled
                <= r.latency * REF_BURST_S / lo * (1 + 1e-12))
    assert result.wall == pytest.approx(
        result.elapsed - sampler.spent(spin.start, micro.end))
    # without a sampler the scaled latency is the raw one
    plain = run_pass([Bench.tasks[1]])
    assert plain.results[0].scaled == plain.results[0].latency


# --------------------------------------------------------------- reporting

def test_tail_rule():
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max")
    xs = [float(i) for i in range(1, 101)]
    value, label = tail(xs)
    assert sum(x > value for x in xs) == 10 and label == "p90"


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
