import argparse
import io
import json
import logging
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsea import cli
from diracsea.cli import main
from diracsea.errors import DegenerateSignature, DiracSeaError

BASE = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": float(np.pi / 2)},
        "scale": {"kind": "dust", "r_max": 5.0}}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, command, doc, extra=()):
    scen = write_scenario(tmp_path, doc)
    out = tmp_path / "out.txt"
    code = main([command, "--scenario", scen, "--out", str(out), *extra])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_evolve_equal_times_identity_row(tmp_path):
    doc = dict(BASE, run={"tau_from": 1.0, "tau_to": 1.0})
    code, text = run_cli(tmp_path, "evolve", doc)
    assert code == 0
    header, row = text.strip().split("\n")
    cells = row.split(",")
    assert cells[0] == "1"
    assert [cells[1], cells[3], cells[5], cells[7]] == ["1", "0", "0", "1"]
    assert [cells[2], cells[4], cells[6], cells[8]] == ["0", "0", "0", "0"]


def test_evolve_trajectory_unitarity_column(tmp_path):
    doc = dict(BASE, run={"tau_from": 0.5, "tau_to": 2.5, "samples": 5})
    code, text = run_cli(tmp_path, "evolve", doc)
    assert code == 0
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 5
    for row in rows:
        assert float(row.split(",")[-1]) <= 1e-10


def test_signature_csv_and_json(tmp_path):
    doc = dict(BASE, run={})
    code, text = run_cli(tmp_path, "signature", doc)
    assert code == 0
    header = text.strip().split("\n")[0].split(",")
    assert header[:3] == ["tau0", "mu_minus", "mu_plus"]
    code, text = run_cli(tmp_path, "signature", doc, extra=("--format", "json"))
    payload = json.loads(text)
    assert payload["eigenvalues"][0] < 0 < payload["eigenvalues"][1]


def test_project_exact(tmp_path):
    doc = dict(BASE, run={"phi": {"support": [1.0, 2.0],
                                  "direction": [1.0, 0.0],
                                  "amplitude": 1.0}})
    code, text = run_cli(tmp_path, "project", doc, extra=("--format", "json"))
    assert code == 0
    payload = json.loads(text)
    assert payload["provenance"] == "exact"
    assert payload["norm"] > 0


def test_project_degenerate_scenario_exits_2(tmp_path, capsys):
    doc = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": 0.0},
           "scale": {"kind": "preset", "name": "twelve_segment"},
           "run": {"phi": {"support": [1.0, 2.0], "direction": [1.0, 0.0]}}}
    code, _ = run_cli(tmp_path, "project", doc)
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err.strip().split("\n")[-1])["error"] == "degenerate_signature"


@pytest.mark.parametrize("before", ["m_rmax\n1,2\n", None], ids=["existing", "absent"])
def test_failed_command_leaves_out_untouched(tmp_path, capsys, before):
    out = tmp_path / "out.txt"
    if before is not None:
        out.write_text(before)
    scen = write_scenario(tmp_path, TWELVE)
    assert main(["project", "--scenario", scen, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "degenerate_signature"
    if before is None:
        assert not out.exists()
    else:
        assert out.read_text() == before


def test_unwritable_out_exits_1_after_the_command(tmp_path, capsys):
    scen = write_scenario(tmp_path, dict(BASE, run={}))
    out = tmp_path / "no_such_dir" / "out.txt"
    assert main(["signature", "--scenario", scen, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "io_error"
    assert not out.exists()


def test_table_scale_runs_with_scipy_blocked(tmp_path):
    # a fresh interpreter where importing scipy fails: numpy is the only
    # runtime dependency, a table scale's spline included
    root = Path(__file__).resolve().parent.parent
    taus = np.linspace(0.0, np.pi, 12)
    doc = dict(BASE, scale={"kind": "smooth_table", "taus": taus.tolist(),
                            "values": (np.sin(taus / 2) ** 2).tolist(), "r_max": 10.0})
    for command, run in (("signature", {}),
                         ("project", {"variant": "exact", "phi": {
                             "support": [1.0, 2.0], "direction": [1.0, 0.0]}})):
        write_scenario(tmp_path, dict(doc, run=run), f"{command}.json")
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from diracsea import cli
        for command in ("signature", "project"):
            code = cli.main([command, "--scenario", f"{sys.argv[1]}/{command}.json",
                             "--out", f"{sys.argv[1]}/{command}.csv"])
            assert code == 0, (command, code)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=root, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert all((tmp_path / f"{command}.csv").read_text().count("\n") > 1
               for command in ("signature", "project"))


def test_undershooting_smooth_table_exits_1(tmp_path, capsys):
    # the spline through these nonnegative values dips to g = -0.427
    doc = dict(BASE, scale={"kind": "smooth_table",
                            "taus": list(np.linspace(0, np.pi, 6)),
                            "values": [0, 0, 1, .05, 0, 0], "r_max": 5.0},
               run={})
    code, text = run_cli(tmp_path, "signature", doc)
    assert code == 1 and text == ""
    assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid_parameter"


def test_invalid_scenario_exits_1(tmp_path, capsys):
    doc = dict(BASE, scale={"kind": "dust", "r_max": -1.0})
    code, _ = run_cli(tmp_path, "signature", doc)
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "invalid_parameter"


def test_bloch_twelve_segment_cancellation(tmp_path):
    doc = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": 0.0},
           "scale": {"kind": "preset", "name": "twelve_segment"},
           "run": {"samples": 25}}
    code, text = run_cli(tmp_path, "bloch", doc)
    assert code == 0
    rows = text.strip().split("\n")
    first = rows[1].split(",")
    assert first[1:4] == ["0", "0", "1"]
    last = rows[-1].split(",")
    r_max = 1.5 / np.tan(np.radians(10.0))
    assert all(abs(float(x)) <= 1e-8 * r_max for x in last[4:])


@pytest.mark.parametrize("tolerances", [{}, {"ode_tol": 1e-9}],
                         ids=["default_tol", "ode_tol_1e-9"])
def test_bloch_piecewise_pair_matches_trace_formula(tmp_path, tolerances):
    # a (mode, piecewise scale) pair takes the closed-form frames, so the
    # rotation cross-check holds at any ode tolerance
    from diracsea.bloch import v_trace_formula
    from diracsea.model import Mode, PiecewiseConstantScale

    breakpoints, values = [0.0, 0.9, 1.7, 2.8], [2.2, 0.7, 1.4]
    doc = {"mode": {"lambda": 5.5, "mass": 1.0, "tau0": 0.2},
           "scale": {"kind": "piecewise", "breakpoints": breakpoints,
                     "values": values},
           "tolerances": tolerances}
    code, text = run_cli(tmp_path, "bloch", doc)
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in text.strip().split("\n")[1:]])
    assert len(rows) == 481
    want = v_trace_formula(Mode(lam=5.5, mass=1.0, tau0=0.2),
                           PiecewiseConstantScale(breakpoints, values), rows[:, 0])
    assert np.max(np.abs(rows[:, 1:4] - np.array(want))) < 1e-12


def test_bloch_scenario_honours_tau_range(tmp_path):
    # a rotation scenario takes tau_from/tau_to like any other scale, and
    # its cumulative columns start at the first grid point
    from diracsea.bloch import build_six_segment, v_trace_formula

    doc = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": 0.0},
           "scale": {"kind": "preset", "name": "six_segment"},
           "run": {"tau_from": 2.0, "tau_to": 2.5, "samples": 3}}
    code, text = run_cli(tmp_path, "bloch", doc)
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in text.strip().split("\n")[1:]])
    assert list(rows[:, 0]) == [2.0, 2.25, 2.5]
    scen = build_six_segment()
    want = v_trace_formula(scen.mode, scen, rows[:, 0])
    assert np.max(np.abs(rows[:, 1:4] - np.array(want))) < 1e-12
    assert list(rows[0, 4:]) == [0.0, 0.0, 0.0]


def test_bloch_default_end_closes_any_piecewise_domain(tmp_path):
    # a plain piecewise file with the six-segment preset's breakpoints and
    # values ends its default grid at tau_end, as the preset does
    from diracsea.bloch import build_six_segment

    scen = build_six_segment()
    mode = {"lambda": 1.5, "mass": 1.0, "tau0": 0.0}
    _, preset = run_cli(tmp_path, "bloch", {
        "mode": mode, "scale": {"kind": "preset", "name": "six_segment"}})
    _, plain = run_cli(tmp_path, "bloch", {
        "mode": mode, "scale": {"kind": "piecewise", "values": list(scen.values),
                                "breakpoints": list(scen.breakpoints)}})
    assert plain == preset
    assert float(plain.strip().split("\n")[-1].split(",")[0]) == scen.tau_end


def test_bloch_on_dust_takes_the_smooth_sweep(tmp_path):
    # the default grid runs from tau0 to 0.05 short of the open domain's
    # end; v agrees with the trace formula, and the integrals with the
    # frame's own rotation ODE
    from diracsea.bloch import v_trace_formula
    from diracsea.model import Mode, dust_scale
    from frame_oracle import frame_rows

    code, text = run_cli(tmp_path, "bloch", dict(BASE, run={"samples": 41}))
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "tau,v1,v2,v3,cum_int_v1R,cum_int_v2R,cum_int_v3R"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert list(rows[[0, -1], 0]) == [np.pi / 2, np.pi - 0.05]
    assert lines[1].split(",")[1:] == ["0", "0", "1", "0", "0", "0"]
    mode, scale = Mode(lam=1.5, mass=1.0, tau0=np.pi / 2), dust_scale(5.0)
    trace = v_trace_formula(mode, scale, rows[:, 0])
    assert np.abs(rows[:, 1:4] - trace).max() <= 1e-11
    _, cum = frame_rows(mode, scale, rows[:, 0])
    assert np.abs(rows[:, 4:] - cum).max() <= 1e-10


def _error_classes(cls=DiracSeaError):
    return [cls, *(sub for child in cls.__subclasses__() for sub in _error_classes(child))]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, cls):
    # 2 exactly for the numerical failures, the RuntimeErrors; 1 otherwise,
    # the base class included
    exc = cls(-1.0, 1.0, 2.0) if cls is DegenerateSignature else cls("failed")

    def fail(cfg, args, out):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "signature", fail)
    code, _ = run_cli(tmp_path, "signature", dict(BASE, run={}))
    assert code == (2 if isinstance(exc, RuntimeError) else 1)
    assert json.loads(capsys.readouterr().err)["error"] == cls.kind


CFS_NAN = dict(BASE, run={"taus": [0.6, 1.1, 1.6, 2.1, 2.6],
                          "lambdas": [1.5, -1.5], "members_per_mode": 2,
                          "classify_tol": float("nan")})


@pytest.mark.parametrize("command,doc,extra", [
    ("signature", BASE, ("--quad-tol", "nan")),
    ("cfs", CFS_NAN, ()),
], ids=["quad_tol_flag", "classify_tol_in_file"])
def test_non_finite_numbers_exit_1(tmp_path, capsys, command, doc, extra):
    code, text = run_cli(tmp_path, command, doc, extra=extra)
    assert code == 1 and text == ""
    assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid_parameter"


def test_jobs_is_a_study_option_only(tmp_path):
    scen = write_scenario(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["signature", "--scenario", scen, "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_study_jobs_below_one_exit_1(tmp_path, capsys, jobs):
    doc = dict(BASE, run={"kind": "s_wkb_bound", "grid": [5.0, 10.0]})
    code, text = run_cli(tmp_path, "study", doc, extra=("--jobs", jobs))
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_parameter" and "jobs" in err["message"]


def test_byte_identical_reruns(tmp_path):
    doc = dict(BASE, run={"tau_from": 0.5, "tau_to": 2.0, "samples": 3})
    _, text1 = run_cli(tmp_path, "evolve", doc)
    _, text2 = run_cli(tmp_path, "evolve", doc)
    assert text1 == text2


def test_parser_is_built_once(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    doc = dict(BASE, run={"tau_from": 0.5, "tau_to": 2.0, "samples": 3})
    texts = [run_cli(tmp_path, "evolve", doc)[1] for _ in range(2)]
    assert len(built) == 2 and built[0] is built[1]
    assert texts[0] == texts[1]


def test_tolerance_flag_overrides(tmp_path):
    doc = dict(BASE, run={},
               tolerances={"ode_tol": 1e-8})
    code, text1 = run_cli(tmp_path, "signature", doc)
    assert code == 0
    code, text2 = run_cli(tmp_path, "signature", doc,
                          extra=("--ode-tol", "1e-11"))
    assert code == 0
    assert text1 != text2  # different integration budgets change digits


def test_tolerance_flags_replace_the_file_values_before_validation(tmp_path):
    # the file's ode_tol alone is out of range; the flag's value replaces it
    run = {"tau_from": 0.5, "tau_to": 2.0, "samples": 3}
    code, text = run_cli(tmp_path, "evolve",
                         dict(BASE, run=run, tolerances={"ode_tol": 1e-3}),
                         extra=("--ode-tol", "1e-10"))
    assert code == 0
    assert text == run_cli(tmp_path, "evolve",
                           dict(BASE, run=run, tolerances={"ode_tol": 1e-10}))[1]


def test_bad_tolerance_flag_names_its_path(tmp_path, capsys):
    code, text = run_cli(tmp_path, "evolve", dict(BASE, run={}),
                         extra=("--ode-tol", "1e-3"))
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"].startswith("scenario invalid: $.tolerances.ode_tol: ")


def test_cfs_classification_grid(tmp_path):
    doc = dict(BASE, run={"taus": [0.8, 1.6, 2.4],
                          "lambdas": [1.5],
                          "members_per_mode": 2})
    code, text = run_cli(tmp_path, "cfs", doc)
    assert code == 0
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 9
    classes = {row.split(",")[2] for row in rows}
    assert classes <= {"timelike", "spacelike", "lightlike"}
    # the diagonal compares a point with itself
    diag = [r for r in rows if r.split(",")[0] == r.split(",")[1]]
    assert all(r.split(",")[2] == "timelike" for r in diag)


def test_study_csv_passes_and_summary(tmp_path, capsys):
    doc = dict(BASE, run={"kind": "s_wkb_bound", "grid": [5.0, 10.0],
                          "lambda": {"kind": "fixed", "value": 1.5}})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 0
    rows = text.strip().split("\n")
    assert rows[0] == "m_rmax,lambda,measured,envelope,pass"
    assert len(rows) == 3
    assert all(r.endswith("true") for r in rows[1:])
    summary = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
    assert summary["passed"] is True


def test_study_json_format(tmp_path):
    doc = dict(BASE, run={"kind": "w_deviation", "grid": [5.0, 10.0],
                          "lambda": {"kind": "track_power", "exponent": 0.8}})
    code, text = run_cli(tmp_path, "study", doc, extra=("--format", "json"))
    assert code == 0
    payload = json.loads(text)
    assert payload["passed"] is True
    assert len(payload["records"]) == 2


def test_study_envelope_violation_exits_3(tmp_path, capsys):
    # lambda = 7.5 fixed while m r_max grows from 2 to 20: the WKB gap at 20
    # is about 15 times the envelope fitted at 2
    doc = dict(BASE, scale={"kind": "dust", "r_max": 2.0},
               run={"kind": "s_wkb_bound", "grid": [2.0, 20.0],
                    "lambda": {"kind": "fixed", "value": 7.5}})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 3
    err_lines = capsys.readouterr().err.strip().split("\n")
    offending = json.loads(err_lines[-1])
    assert offending["error"] == "bound_violation"
    assert offending["record"]["m_rmax"] == 20.0
    assert text.strip().split("\n")[2].endswith("false")


def test_negative_slack_fails_validation(tmp_path, capsys):
    doc = dict(BASE, run={"kind": "leading_term_bound", "grid": [10.0, 30.0],
                          "slack": -2})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_parameter"
    assert err["message"].startswith("scenario invalid: $.run.slack")


def test_unknown_lambda_kind_fails_validation(tmp_path, capsys):
    doc = dict(BASE, run={"kind": "s_wkb_bound", "grid": [5.0, 10.0],
                          "lambda": {"kind": "bogus"}})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_parameter"
    assert err["message"] == ("scenario invalid: $.run.lambda.kind: 'bogus' is not "
                              "one of ['fixed', 'track_mrmax', 'track_power']")


@pytest.mark.parametrize("field,doc", [
    ("mode.mass", {"mode": dict(BASE["mode"], mass=2.0)}),
    ("scale.r_max", {"scale": {"kind": "dust", "r_max": 55.0}}),
    ("mode.mass", {"run": {"kind": "leading_term_bound", "grid": [10.0, 30.0],
                           "r_max": 5.0}}),
], ids=["mass", "r_max", "leading_term_mass"])
def test_study_rejects_a_mode_or_scale_off_its_fit_point(tmp_path, capsys, field, doc):
    # a study sets mass and r_max at each grid point itself; the file's must
    # be those of its first point, where the envelope is fitted
    doc = {**BASE, "run": {"kind": "s_wkb_bound", "grid": [5.0, 10.0]}, **doc}
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_parameter"
    assert err["message"].startswith(f"{field} = ")


@pytest.mark.parametrize("kind,field,value", [
    ("s_wkb_bound", "r_max", 7.0),
    ("p_wkb_bound", "r_max", 7.0),
    ("w_deviation", "r_max", 7.0),
    ("s_wkb_bound", "phi", {"support": [0.5, 2.5], "amplitude": 3.0}),
    ("leading_term_bound", "phi", {"support": [0.5, 2.5]}),
    ("w_deviation", "phi", {"support": [0.5, 2.5]}),
])
def test_study_rejects_a_run_option_its_kind_never_reads(tmp_path, capsys, kind, field,
                                                         value):
    # run.r_max is the leading-term study's fixed scale, run.phi the
    # projector study's probe; no other kind reads either
    doc = dict(BASE, run={"kind": kind, "grid": [5.0, 10.0], field: value})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_parameter"
    assert err["message"].startswith(f"run.{field} is read by the ")
    assert err["message"].endswith(f"not by {kind}")


@pytest.mark.parametrize("block,field", [
    ({"kind": "fixed", "value": 1.5, "k": 7.0, "exponent": 0.3}, "k"),
    ({"value": 1.5, "exponent": 0.3}, "exponent"),
    ({"kind": "track_mrmax", "value": 1.5, "k": 1.0}, "value"),
    ({"kind": "track_power", "k": 1.0}, "k"),
], ids=["fixed_k", "default_kind_exponent", "track_mrmax_value", "track_power_k"])
def test_study_rejects_a_lambda_field_its_kind_never_reads(tmp_path, capsys, block,
                                                           field):
    doc = dict(BASE, run={"kind": "s_wkb_bound", "grid": [5.0, 10.0], "lambda": block})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_parameter"
    assert err["message"].startswith(f"run.lambda.{field} is not read by the ")


def test_leading_term_study_fits_at_its_first_mass(tmp_path):
    doc = dict(BASE, mode=dict(BASE["mode"], mass=2.0),
               run={"kind": "leading_term_bound", "grid": [10.0, 30.0], "r_max": 5.0})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 0
    assert [row.split(",")[0] for row in text.strip().split("\n")[1:]] == ["10", "30"]


@pytest.mark.parametrize("scale", [
    {"kind": "constant", "r": 3.0},
    {"kind": "piecewise", "breakpoints": [0.0, 1.0, 3.0], "values": [1.0, 2.0]},
    {"kind": "preset", "name": "six_segment"},
], ids=["constant", "piecewise", "preset"])
def test_study_rejects_a_scale_it_would_ignore(tmp_path, capsys, scale):
    doc = dict(BASE, scale=scale, run={"kind": "s_wkb_bound", "grid": [5.0, 10.0]})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_parameter"
    assert err["message"] == ("scenario invalid: $.scale.kind: "
                              f"{scale['kind']!r} is not one of ['dust']")


def test_debug_log_reports_each_stepper_sweep(tmp_path, capsys, caplog):
    scen = write_scenario(tmp_path, dict(BASE, run={}))
    assert main(["signature", "--scenario", scen]) == 0
    quiet = capsys.readouterr().out
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="diracsea")
    assert main(["signature", "--scenario", scen]) == 0
    assert capsys.readouterr().out == quiet
    sweeps = [r.getMessage() for r in caplog.records
              if r.name == "diracsea.evolution"]
    # the exact signature integrates out from tau0 to both cutoffs
    assert len(sweeps) == 2
    for line in sweeps:
        assert re.fullmatch(r"cointegrate: 1 stops, width 4, \d+ accepted, "
                            r"\d+ rejected, \d+ rhs evaluations", line)


def test_unknown_log_level_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIRACSEA_LOG", "verbose")
    code, text = run_cli(tmp_path, "signature", BASE)
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid_parameter"
    assert "DIRACSEA_LOG" in err["message"]


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["signature", "--scenario", str(tmp_path / "nope.json")])
    assert code == 1


TWELVE = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": 0.0},
          "scale": {"kind": "preset", "name": "twelve_segment"},
          "run": {"phi": {"support": [1.0, 2.0]}}}


@pytest.mark.parametrize("flag,value", [("--gap-tol", "0"), ("--gap-tol", "-1"),
                                        ("--quad-tol", "0.5")])
def test_tolerance_flags_checked_against_schema(tmp_path, capsys, flag, value):
    # gap_tol 0 would accept the canonical degenerate signature
    code, text = run_cli(tmp_path, "project", TWELVE, extra=(flag, value))
    assert code == 1 and text == ""
    assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid_parameter"


@pytest.mark.parametrize("command,run", [
    ("signature", {"wkbb": True}),
    ("evolve", {"sample": 3}),
    ("evolve", {"samples": -4}),
    ("bloch", {"samples": 0}),
    ("study", {"kind": "s_wkb_bound", "grid": "abc"}),
    ("project", {"variant": "wkb_full", "phi": {"support": [1.0, 2.0]}}),
    ("project", {"phi": {"support": [1.0, 2.0], "amplitud": 2.0}}),
    ("cfs", {"taus": [0.8, 1.6], "members_per_mode": 3}),
    ("study", {"kind": "s_wkb_bound", "grid": [5.0, 10.0],
               "lambda": {"kind": "fixed", "valu": 2.5}}),
], ids=["signature_unknown_key", "evolve_unknown_key", "evolve_negative_samples",
        "bloch_zero_samples", "study_grid_string", "project_unknown_variant",
        "probe_unknown_key", "cfs_three_members", "lambda_unknown_key"])
def test_bad_run_options_exit_1(tmp_path, capsys, command, run):
    code, text = run_cli(tmp_path, command, dict(BASE, run=run))
    assert code == 1 and text == ""
    assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid_parameter"


@pytest.mark.parametrize("variant,route,tols", [
    ("wkb", "p_wkb_apply", {"quad_tol": 1e-8, "gap_tol": 1e-5}),
    ("wkb_leading", "p_wkb_leading_apply", {}),
])
def test_project_wkb_variants_match_library(tmp_path, variant, route, tols):
    from diracsea import projector
    from diracsea.model import Mode, bump, dust_scale

    probe = {"support": [1.0, 2.0], "direction": [[1.0, 0.0], [0.0, 0.5]]}
    doc = dict(BASE, run={"variant": variant, "phi": probe},
               tolerances={"ode_tol": 1e-9, "quad_tol": 1e-8, "gap_tol": 1e-5})
    code, text = run_cli(tmp_path, "project", doc, extra=("--format", "json"))
    assert code == 0
    want = getattr(projector, route)(Mode(lam=1.5, mass=1.0, tau0=float(np.pi / 2)),
                                     dust_scale(5.0), bump((1.0, 2.0), [1.0, 0.5j]),
                                     tol=1e-9, **tols)
    payload = json.loads(text)
    assert payload["value"] == [[z.real, z.imag] for z in want.value]
    assert payload["provenance"] == want.provenance.value


def test_project_wkb_over_a_singular_levin_panel(tmp_path):
    # one Levin panel of this image has singular collocation systems; it is
    # split, not reported as a numpy error
    from diracsea.model import Mode, bump, dust_scale
    from diracsea.projector import p_wkb_apply

    doc = {"mode": dict(BASE["mode"], **{"lambda": 7.5}),
           "scale": {"kind": "dust", "r_max": 100.0},
           "run": {"variant": "wkb", "phi": {"support": [1.0, 2.0], "direction": [1.0, 0.0]}}}
    code, text = run_cli(tmp_path, "project", doc)
    assert code == 0
    assert len(text.strip().split("\n")) == 2
    code, text = run_cli(tmp_path, "project", doc, extra=("--format", "json"))
    want = p_wkb_apply(Mode(lam=7.5, mass=1.0, tau0=float(np.pi / 2)), dust_scale(100.0),
                       bump((1.0, 2.0), [1.0, 0.0]))
    assert code == 0 and np.all(np.isfinite(want.value))
    assert json.loads(text)["value"] == [[z.real, z.imag] for z in want.value]


def test_cfs_one_member_per_mode_is_the_negative_subspace_family(tmp_path):
    from diracsea import cfs
    from diracsea.model import Mode, dust_scale

    taus = [0.8, 1.6, 2.4]
    doc = dict(BASE, run={"taus": taus, "lambdas": [1.5, -2.5],
                          "members_per_mode": 1})
    code, text = run_cli(tmp_path, "cfs", doc)
    assert code == 0
    modes = [Mode(lam=l, mass=1.0, tau0=float(np.pi / 2)) for l in (1.5, -2.5)]
    family = cfs.orthonormalize(cfs.negative_subspace_family(modes, dust_scale(5.0)))
    assert family.size == 2
    corr = {t: cfs.local_correlation(family, t) for t in taus}
    want = [f"{tx:.17g},{ty:.17g},{cfs.causal_classify(corr[tx], corr[ty]).value}"
            for tx in taus for ty in taus]
    assert text.strip().split("\n")[1:] == want


@pytest.mark.parametrize("mode,scale,taus", [
    ({"tau0": float(np.pi / 2)}, {"kind": "dust", "r_max": 10.0}, np.linspace(0.3, 2.8, 7)),
    ({"tau0": 0.0}, {"kind": "preset", "name": "six_segment"}, np.linspace(0.0, 8.9, 7)),
], ids=["dust", "six_segment"])
def test_cfs_full_fiber_classes_do_not_depend_on_the_basis(tmp_path, mode, scale, taus):
    # per mode block, F(x) F(y) under any orthonormal basis of the fiber is
    # similar to the product under the standard one, which the CLI takes:
    # the signature's eigenvector basis gives the same classes
    from diracsea import cfs
    from diracsea.model import Mode
    from diracsea.projector import signature_operator
    from diracsea.scenario_io import parse_scenario

    lambdas = [1.5, -1.5, 2.5]
    doc = dict(BASE, mode=dict(BASE["mode"], **mode), scale=scale,
               run={"taus": taus.tolist(), "lambdas": lambdas, "members_per_mode": 2})
    code, text = run_cli(tmp_path, "cfs", doc)
    assert code == 0
    cfg = parse_scenario(doc)
    modes = [Mode(lam=lam, mass=1.0, tau0=cfg.mode.tau0) for lam in lambdas]
    members = [(i, v) for i, m in enumerate(modes)
               for v in signature_operator(m, cfg.scale).eigvectors.matrix.T]
    family = cfs.orthonormalize(cfs.build_family(modes, cfg.scale, members,
                                                 require_negative_subspace=False))
    corr = {t: cfs.local_correlation(family, t) for t in taus.tolist()}
    want = [cfs.causal_classify(corr[tx], corr[ty]).value for tx in corr for ty in corr]
    assert [row.split(",")[2] for row in text.strip().split("\n")[1:]] == want


@pytest.mark.parametrize("command,run", [
    ("evolve", {"tau_from": 0.5, "tau_to": 2.5, "samples": 4}),
    ("bloch", {"samples": 5}),
    ("cfs", {"taus": [0.8, 2.4], "members_per_mode": 2}),
])
def test_json_format_matches_csv(tmp_path, command, run):
    doc = dict(BASE, run=run)
    code, csv = run_cli(tmp_path, command, doc)
    assert code == 0
    code, text = run_cli(tmp_path, command, doc, extra=("--format", "json"))
    assert code == 0
    lines = csv.strip().split("\n")
    header = lines[0].split(",")
    rows = json.loads(text)["rows"]
    assert len(rows) == len(lines) - 1
    for line, row in zip(lines[1:], rows):
        for name, cell in zip(header, line.split(",")):
            value = row[name]
            assert value == cell if isinstance(value, str) else value == float(cell)


def _fmt_by_the_general_rules(x):
    # what a CSV cell reads, type by type
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


@pytest.mark.parametrize("x", [
    0.1, 1.0 / 3.0, -2.5e-300, 1e300, 5e-324, 0.0, -0.0, float("nan"), float("inf"),
    float("-inf"), np.float64(0.1), np.float64(-0.0), np.float64("nan"),
    np.float32(0.1), 3, -7, np.int64(12), True, False, np.bool_(True), "timelike",
], ids=repr)
def test_fmt_float_fast_path_keeps_the_text(x):
    # _fmt, and the row path's %.17g for a float cell
    assert cli._fmt(x) == _fmt_by_the_general_rules(x)
    assert emitted_csv(["x"], [[x]]) == "x\n" + _fmt_by_the_general_rules(x) + "\n"


def emitted_csv(header, rows):
    buf = io.StringIO()
    cli._emit(buf, argparse.Namespace(format="csv"), header, rows)
    return buf.getvalue()


CELLS = st.one_of(
    st.floats(), st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, np.float64(-0.0)]),
    st.booleans(), st.booleans().map(np.bool_), st.integers(-10 ** 30, 10 ** 30),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=8)))
def test_row_path_prints_each_cell_as_fmt(rows):
    # rows of mixed cell types, each row its own: the same bytes as _fmt cell by cell
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    want = "\n".join([",".join(header)] + [",".join(map(cli._fmt, row)) for row in rows])
    assert emitted_csv(header, rows) == want + "\n"


@pytest.mark.parametrize("command,run", [
    ("evolve", {"tau_from": 0.5, "tau_to": 2.5, "samples": 4}),
    ("evolve", {"tau_to": 2.0}),
    ("bloch", {"samples": 5}),
])
def test_all_float_tables_take_the_row_path(tmp_path, monkeypatch, command, run):
    # every cell a Python float, so no cell goes through _fmt
    cells = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda out, args, header, rows, *rest: (
        cells.extend(x for row in rows for x in row), emit(out, args, header, rows, *rest)))
    monkeypatch.setattr(cli, "_fmt", lambda x: pytest.fail(f"{x!r} went through _fmt"))
    code, text = run_cli(tmp_path, command, dict(BASE, run=run))
    assert code == 0 and text.count("\n") > 1
    assert cells and {type(x) for x in cells} == {float}


def test_no_scipy_module_is_loaded_by_the_cli(tmp_path):
    # a fresh interpreter: the import and a run of each sample scenario load no
    # scipy, no jsonschema and no process pool (a serial study starts none)
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""
        import sys
        from diracsea import cli
        def scipy():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        def jsonschema():  # the jsonschema package and the packages it imports
            return sorted(m for m in sys.modules if m.split(".")[0] in {
                "jsonschema", "jsonschema_specifications", "referencing", "rpds",
                "attr", "attrs"})
        def pool():
            return sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                          or m == "concurrent.futures.process")
        assert scipy() == [], scipy()
        assert jsonschema() == [], jsonschema()
        assert pool() == [], pool()
        for command, name in [("signature", "dust_signature"),
                              ("project", "perturbed_projection"),
                              ("bloch", "twelve_segment_bloch"),
                              ("study", "scaling_study")]:
            code = cli.main([command, "--scenario", f"scenarios/{name}.json",
                             "--out", sys.argv[1] + "/" + name + ".csv"])
            assert code == 0 and scipy() == [], (name, code, scipy())
            assert jsonschema() == [], (name, jsonschema())
            assert pool() == [], (name, pool())
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=root, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
