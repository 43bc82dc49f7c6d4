import json

import numpy as np

from diracsea.cli import main

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


def test_byte_identical_reruns(tmp_path):
    doc = dict(BASE, run={"tau_from": 0.5, "tau_to": 2.0, "samples": 3})
    _, text1 = run_cli(tmp_path, "evolve", doc)
    _, text2 = run_cli(tmp_path, "evolve", doc)
    assert text1 == text2


def test_tolerance_flag_overrides(tmp_path):
    doc = dict(BASE, run={},
               tolerances={"ode_tol": 1e-8})
    code, text1 = run_cli(tmp_path, "signature", doc)
    assert code == 0
    code, text2 = run_cli(tmp_path, "signature", doc,
                          extra=("--ode-tol", "1e-11"))
    assert code == 0
    assert text1 != text2  # different integration budgets change digits


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
    # a negative slack pushes the envelope below the measured fit point
    doc = dict(BASE, run={"kind": "s_wkb_bound", "grid": [5.0, 10.0],
                          "lambda": {"kind": "fixed", "value": 1.5},
                          "slack": -0.99})
    code, text = run_cli(tmp_path, "study", doc)
    assert code == 3
    err_lines = capsys.readouterr().err.strip().split("\n")
    offending = json.loads(err_lines[-1])
    assert offending["error"] == "bound_violation"
    assert "record" in offending
    assert text.strip().split("\n")[1].endswith("false")


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["signature", "--scenario", str(tmp_path / "nope.json")])
    assert code == 1
