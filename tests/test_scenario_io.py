import numpy as np
import pytest

from diracsea.bloch import Scenario
from diracsea.errors import InvalidParameter
from diracsea.model import PiecewiseConstantScale, SmoothScale
from diracsea.scenario_io import parse_scenario

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
