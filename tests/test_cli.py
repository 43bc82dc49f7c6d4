import json

import numpy as np
import pytest

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


@pytest.mark.parametrize("variant,pwkb", [("wkb", "FULL"),
                                          ("wkb_leading", "LEADING_ORDER")])
def test_project_wkb_variants_match_library(tmp_path, variant, pwkb):
    from diracsea.model import Mode, bump, dust_scale
    from diracsea.projector import PWkbVariant, p_wkb_apply

    probe = {"support": [1.0, 2.0], "direction": [[1.0, 0.0], [0.0, 0.5]]}
    doc = dict(BASE, run={"variant": variant, "phi": probe},
               tolerances={"ode_tol": 1e-9, "quad_tol": 1e-8, "gap_tol": 1e-5})
    code, text = run_cli(tmp_path, "project", doc, extra=("--format", "json"))
    assert code == 0
    want = p_wkb_apply(Mode(lam=1.5, mass=1.0, tau0=float(np.pi / 2)),
                       dust_scale(5.0), bump((1.0, 2.0), [1.0, 0.5j]),
                       variant=PWkbVariant[pwkb], tol=1e-9, quad_tol=1e-8,
                       gap_tol=1e-5)
    payload = json.loads(text)
    assert payload["value"] == [[z.real, z.imag] for z in want.value]
    assert payload["provenance"] == want.provenance.value


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
