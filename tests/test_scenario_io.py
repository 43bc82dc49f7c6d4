import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schema_oracle
from diracsea.bloch import Scenario
from diracsea.errors import InvalidParameter
from diracsea.model import MAX_ODE_TOL, MIN_ODE_TOL, PiecewiseConstantScale, SmoothScale
from diracsea.scenario_io import RUN_OPTIONS, SCENARIO_SCHEMA, _check, parse_scenario

BASE_MODE = {"lambda": 1.5, "mass": 1.0, "tau0": float(np.pi / 2)}


def doc(**overrides):
    d = {"mode": dict(BASE_MODE), "scale": {"kind": "dust", "r_max": 10.0}}
    d.update(overrides)
    return d


def test_dust_scenario_parses():
    cfg = parse_scenario(doc())
    assert isinstance(cfg.scale, SmoothScale)
    assert cfg.mode.lam == 1.5
    assert cfg.tolerances.ode_tol == 1e-10


def test_unknown_top_level_key_rejected():
    with pytest.raises(InvalidParameter):
        parse_scenario(doc(extra={"x": 1}))


def test_unknown_mode_key_rejected():
    d = doc()
    d["mode"]["colour"] = "red"
    with pytest.raises(InvalidParameter):
        parse_scenario(d)


def test_unknown_scale_key_rejected():
    d = doc()
    d["scale"]["spin"] = 2
    with pytest.raises(InvalidParameter):
        parse_scenario(d)


def test_tolerance_ranges_enforced():
    d = doc(tolerances={"ode_tol": 1e-3})
    with pytest.raises(InvalidParameter):
        parse_scenario(d)
    d = doc(tolerances={"gap_tol": 0.5})
    with pytest.raises(InvalidParameter):
        parse_scenario(d)
    cfg = parse_scenario(doc(tolerances={"ode_tol": 1e-9, "quad_tol": 1e-8,
                                         "gap_tol": 1e-5}))
    assert cfg.tolerances.quad_tol == 1e-8


def test_piecewise_scale_parses():
    d = doc()
    d["scale"] = {"kind": "piecewise", "breakpoints": [0.0, 1.0, 2.0],
                  "values": [2.0, 3.0]}
    cfg = parse_scenario(d)
    assert isinstance(cfg.scale, PiecewiseConstantScale)
    assert cfg.scale.value(1.5) == 3.0


def test_preset_twelve_segment():
    d = doc()
    d["mode"]["tau0"] = 0.0
    d["scale"] = {"kind": "preset", "name": "twelve_segment"}
    cfg = parse_scenario(d)
    assert isinstance(cfg.scale, Scenario)
    assert len(cfg.scale.rotations) == 12
    assert isinstance(cfg.plain_scale(), PiecewiseConstantScale)


def test_preset_with_perturbation():
    d = doc()
    d["mode"]["tau0"] = 0.0
    d["scale"] = {"kind": "preset", "name": "twelve_segment",
                  "perturb": {"index": 0, "dp": 0.01}}
    cfg = parse_scenario(d)
    assert cfg.scale.rotations[0] == pytest.approx(5.51)


def test_preset_checks_tau0_and_perturbed_index():
    d = doc()
    d["scale"] = {"kind": "preset", "name": "six_segment"}
    with pytest.raises(InvalidParameter, match="tau0"):
        parse_scenario(d)
    d["mode"]["tau0"] = 0.0
    d["scale"]["perturb"] = {"index": 6, "dp": 0.01}
    with pytest.raises(InvalidParameter, match="segment 6"):
        parse_scenario(d)
    d["scale"]["perturb"]["index"] = 5
    assert parse_scenario(d).scale.rotations[5] == pytest.approx(0.51)


@pytest.mark.parametrize("where", ["mode", "scale", "tolerances"])
def test_non_finite_numbers_rejected(where):
    d = doc(tolerances={"ode_tol": 1e-9})
    key = {"mode": "lambda", "scale": "r_max", "tolerances": "ode_tol"}[where]
    for bad in (float("nan"), float("inf")):
        d[where] = dict(d[where], **{key: bad})
        with pytest.raises(InvalidParameter, match="not JSON compliant"):
            parse_scenario(d)


def test_segments_scale_requires_tau0_zero():
    d = doc()
    d["scale"] = {"kind": "segments", "segments": [[2.0, 1.5], [0.5, 0.5]]}
    with pytest.raises(InvalidParameter):
        parse_scenario(d)
    d["mode"]["tau0"] = 0.0
    cfg = parse_scenario(d)
    assert cfg.scale.values[0] == 2.0


def test_smooth_table_parses():
    ts = list(np.linspace(0, np.pi, 12))
    vals = list(np.sin(np.linspace(0, np.pi, 12) / 2) ** 2)
    d = doc()
    d["scale"] = {"kind": "smooth_table", "taus": ts, "values": vals,
                  "r_max": 4.0}
    cfg = parse_scenario(d)
    assert cfg.scale.value(np.pi - 1e-6) == pytest.approx(4.0, rel=1e-3)


def test_missing_required_blocks():
    with pytest.raises(InvalidParameter):
        parse_scenario({"mode": dict(BASE_MODE)})
    with pytest.raises(InvalidParameter):
        parse_scenario({"scale": {"kind": "dust", "r_max": 1.0}})


def test_physical_flag_respected():
    d = doc()
    d["mode"]["lambda"] = 0.7
    with pytest.raises(InvalidParameter):
        parse_scenario(d)
    d["mode"]["physical"] = False
    cfg = parse_scenario(d)
    assert cfg.mode.lam == 0.7


@pytest.mark.parametrize("scale,message", [
    ({"kind": "dust"}, "$.scale: 'r_max' is a required property"),
    ({"kind": "constant", "r": 2.0, "r_max": 2.0},
     "$.scale: Additional properties are not allowed ('r_max' was unexpected)"),
    ({"kind": "smooth_table", "taus": [0, 1, 2, 3], "values": [1, 2, 3, 4]},
     "$.scale: 'r_max' is a required property"),
    ({"kind": "piecewise", "breakpoints": [0.0, 1.0]},
     "$.scale: 'values' is a required property"),
    ({"kind": "segments", "segment": [[2.0, 1.5]]},
     "$.scale: Additional properties are not allowed ('segment' was unexpected)"),
    ({"kind": "preset", "name": "nine"},
     "$.scale.name: 'nine' is not one of ['six_segment', 'twelve_segment']"),
    ({"kind": "preset", "name": "six_segment", "perturb": {"index": 0}},
     "$.scale.perturb: 'dp' is a required property"),
    ({"kind": "weird", "r": 1.0},
     "$.scale.kind: 'weird' is not one of ['dust', 'constant'"),
    ({"r_max": 1.0}, "$.scale: 'kind' is a required property"),
    ({"kind": "dust", "r_max": -1},
     "$.scale.r_max: -1 is less than or equal to the minimum of 0"),
    ({"kind": "dust", "r_max": "big"}, "$.scale.r_max: 'big' is not of type 'number'"),
], ids=["dust", "constant", "smooth_table", "piecewise", "segments", "preset",
        "preset_perturb", "unknown_kind", "no_kind", "range", "type"])
def test_scale_errors_name_the_field(scale, message):
    with pytest.raises(InvalidParameter) as exc:
        parse_scenario(doc(scale=scale))
    assert str(exc.value).startswith(f"scenario invalid: {message}")


def test_ode_tol_range_is_the_library_one():
    ode_tol = SCENARIO_SCHEMA["properties"]["tolerances"]["properties"]["ode_tol"]
    assert (ode_tol["exclusiveMinimum"], ode_tol["exclusiveMaximum"]) == (MIN_ODE_TOL,
                                                                          MAX_ODE_TOL)
    for tol in (MIN_ODE_TOL, MAX_ODE_TOL):
        with pytest.raises(InvalidParameter, match="ode_tol"):
            parse_scenario(doc(tolerances={"ode_tol": tol}))


def test_tau0_past_pi_is_left_to_the_scale():
    cfg = parse_scenario(doc(mode=dict(BASE_MODE, tau0=4.0),
                             scale={"kind": "piecewise", "breakpoints": [0.0, 2.0, 5.0],
                                    "values": [1.0, 2.0]}))
    assert cfg.mode.tau0 == 4.0
    with pytest.raises(InvalidParameter, match="tau0"):
        parse_scenario(doc(mode=dict(BASE_MODE, tau0=-0.5)))


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SAMPLE_COMMANDS = {"dust_signature": "signature", "perturbed_projection": "project",
                   "twelve_segment_bloch": "bloch", "scaling_study": "study"}
PROBE = {"support": [1.0, 2.0], "direction": [[1.0, 0.5], 0.0], "amplitude": 1.0}
#: A valid run block of each command, and of no command.
VALID_RUNS = {
    "evolve": {"tau_from": 0.5, "tau_to": 2.0, "samples": 5},
    "signature": {"wkb": True},
    "project": {"phi": PROBE, "variant": "wkb"},
    "bloch": {"tau_from": 0.5, "tau_to": 2.0, "samples": 5},
    "cfs": {"taus": [1.0, 2.0], "lambdas": [1.5], "members_per_mode": 2,
            "classify_tol": 1e-3},
    "study": {"kind": "w_deviation", "grid": [10.0], "phi": PROBE, "r_max": 3.0,
              "slack": 0.1, "lambda": {"kind": "track_power", "exponent": 0.5}},
    None: {"anything": [1, "goes"]},
}
BASES = [(command, doc(mode=dict(BASE_MODE, tau0=0.0), run=run,
                       scale={"kind": "segments", "segments": [[2.0, 1.5], [0.5, 0.5]]}
                       if command != "study" else {"kind": "dust", "r_max": 10.0},
                       tolerances={"ode_tol": 1e-9, "quad_tol": 1e-8, "gap_tol": 1e-5}))
         for command, run in VALID_RUNS.items()] + [
    (command, json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8")))
    for name, own in SAMPLE_COMMANDS.items() for command in (own, None)]
#: Wrong types and out-of-range numbers for every field, bools and ints among them.
SWAPS = ["x", None, True, False, 0, 1, 2, -1, 0.0, 1.5, -0.5, 1e9, 1e-20, [], {},
         [1], [[1]], [1, 2, 3], ["a", 1], [True, 1.0], {"kind": "dust"}]


def _verdict(document, command):
    try:
        _check(document, command)
    except InvalidParameter as exc:
        return str(exc)
    return None


def _nodes(x, path=()):
    """(path, value) of every node of a document, the root first."""
    yield path, x
    children = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


@st.composite
def mutants(draw):
    """A base document under its command, with one to three mutations: drop
    a node, add a key, swap in another value, or swap a bool and an int."""
    command, document = draw(st.sampled_from(BASES))
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(document))))
        action = draw(st.sampled_from(["drop", "add", "swap", "flip"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "segment", "r_max", "phi", "then"]))] = \
                copy.deepcopy(draw(st.sampled_from(SWAPS)))
        elif path:
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            if action == "drop":
                del parent[path[-1]]
            elif action == "flip" and isinstance(node, (bool, int)):
                parent[path[-1]] = int(node) if isinstance(node, bool) else node == 1
            else:
                parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    return command, document


def _with_run(command, **run):
    return command, doc(run=run)


@settings(max_examples=400, deadline=None)
@given(mutants())
@example(_with_run("cfs", taus=[1.0], members_per_mode=True))
@example(_with_run("signature", wkb=1))
@example(_with_run("bloch", samples=True))
@example(_with_run("bloch", samples=2.0))
@example(_with_run("project", phi=dict(PROBE, direction=[[1]])))
@example(_with_run("project", phi=dict(PROBE, direction=[[1], 0.0])))
def test_checks_agree_with_jsonschema(case):
    # the same decision always, and the same message wherever one rule is broken
    command, document = case
    count, want = schema_oracle.verdict(document, command)
    got = _verdict(document, command)
    assert (got is None) == (want is None), (got, want)
    if count == 1:
        assert got == want


@pytest.mark.parametrize("command", [None, *RUN_OPTIONS])
def test_valid_documents_and_schemas(command):
    # each command's schema is a valid JSON schema, which its base document meets
    schema_oracle.validator(command)
    for base_command, document in BASES:
        if base_command == command:
            assert schema_oracle.verdict(document, command) == (0, None)
            assert _verdict(document, command) is None


def test_unsupported_keyword_fails_loudly(monkeypatch):
    # a keyword the walker lacks raises; the document does not pass unchecked
    wkb = {"type": "boolean", "pattern": "^t"}
    monkeypatch.setitem(RUN_OPTIONS, "signature", dict(RUN_OPTIONS["signature"],
                                                       properties={"wkb": wkb}))
    with pytest.raises(KeyError, match="pattern"):
        parse_scenario(doc(run={"wkb": True}), "signature")
