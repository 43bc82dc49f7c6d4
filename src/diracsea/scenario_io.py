"""Scenario-file ingestion: JSON schema, validation, object construction.

A scenario file fixes the mode, the scale function (or rotation-count
scenario), command-specific run options, and the three tolerances.
Unknown keys are rejected everywhere, run options included (``RUN_OPTIONS``
lists each command's), so typos fail loudly instead of silently running
with defaults.  Each scale kind is one ``SCALE_KINDS`` entry, which both
validates its block and builds its scale.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace

import jsonschema

from .bloch import build_six_segment, build_twelve_segment, make_scenario, \
    perturb_scenario
from .errors import InvalidParameter
from .evolution import MAX_ODE_TOL, MIN_ODE_TOL
from .model import (
    DEFAULT_GAP_TOL,
    DEFAULT_ODE_TOL,
    DEFAULT_QUAD_TOL,
    Mode,
    PiecewiseConstantScale,
    ScaleFunction,
    dust_scale,
    constant_scale,
    smooth_table_scale,
)
from .studies import LAMBDA_KINDS, StudyKind

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_NUMBERS = {"type": "array", "items": _NUMBER, "minItems": 1}
_SAMPLES = {"type": "integer", "minimum": 1}


def _options(*required, **properties):
    """An object schema admitting exactly ``properties``."""
    return {"type": "object", "additionalProperties": False,
            "required": list(required), "properties": properties}


_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
# direction entries are numbers or [re, im] pairs
_PROBE = _options("support", support=_PAIR, amplitude=_NUMBER,
                  direction=dict(_PAIR, items={"oneOf": [_NUMBER, _PAIR]}))

#: The run options of each command; any other key is an error.
RUN_OPTIONS = {
    "evolve": _options(tau_from=_NUMBER, tau_to=_NUMBER, samples=_SAMPLES),
    "signature": _options(wkb={"type": "boolean"}),
    "project": _options("phi", phi=_PROBE,
                        variant={"enum": ["exact", "wkb", "wkb_leading"]}),
    "bloch": _options(tau_from=_NUMBER, tau_to=_NUMBER, samples=_SAMPLES),
    "cfs": _options("taus", taus=_NUMBERS, lambdas=_NUMBERS,
                    members_per_mode={"enum": [1, 2]}, classify_tol=_POSITIVE),
    "study": _options(
        "kind", "grid", kind={"enum": [k.value for k in StudyKind]},
        grid=_NUMBERS, phi=_PROBE, r_max=_POSITIVE, slack=_NONNEGATIVE,
        **{"lambda": _options(kind={"enum": list(LAMBDA_KINDS)},
                              **{field: _NUMBER for field, _ in LAMBDA_KINDS.values()})}),
}

#: Commands taking only some scale kinds: a study sweeps the dust scale.
COMMAND_SCALE_KINDS = {"study": ["dust"]}

_PRESETS = {"six_segment": build_six_segment, "twelve_segment": build_twelve_segment}


def _preset(sdoc, mode):
    # the document's mode, so that Scenario checks its tau0
    scale = replace(_PRESETS[sdoc["name"]](lam=mode.lam, mass=mode.mass), mode=mode)
    if "perturb" in sdoc:
        scale = perturb_scenario(scale, int(sdoc["perturb"]["index"]),
                                 float(sdoc["perturb"]["dp"]))
    return scale


#: Each scale kind: the schema of its keys besides ``kind``, and the
#: builder of its scale from the ``scale`` block and the mode.
SCALE_KINDS = {
    "dust": (_options("r_max", r_max=_POSITIVE),
             lambda sdoc, mode: dust_scale(float(sdoc["r_max"]))),
    "constant": (_options("r", r=_POSITIVE),
                 lambda sdoc, mode: constant_scale(float(sdoc["r"]))),
    "smooth_table": (
        _options("taus", "values", "r_max", taus=dict(_NUMBERS, minItems=4),
                 values=dict(_NUMBERS, minItems=4), r_max=_POSITIVE),
        lambda sdoc, mode: smooth_table_scale(sdoc["taus"], sdoc["values"],
                                              float(sdoc["r_max"]))),
    "piecewise": (
        _options("breakpoints", "values", breakpoints=dict(_NUMBERS, minItems=2),
                 values=dict(_NUMBERS, items=_POSITIVE)),
        lambda sdoc, mode: PiecewiseConstantScale(
            breakpoints=tuple(sdoc["breakpoints"]), values=tuple(sdoc["values"]))),
    "segments": (
        _options("segments", segments=dict(_NUMBERS, items=dict(
            _PAIR, items=_POSITIVE))),
        lambda sdoc, mode: make_scenario(mode, sdoc["segments"])),
    "preset": (
        _options("name", name={"enum": list(_PRESETS)},
                 perturb=_options("index", "dp",
                                  index={"type": "integer", "minimum": 0},
                                  dp=_NUMBER)),
        _preset),
}

SCENARIO_SCHEMA = _options(
    "mode", "scale",
    mode=_options("lambda", "mass", "tau0", **{"lambda": _NUMBER}, mass=_POSITIVE,
                  tau0=_NONNEGATIVE, physical={"type": "boolean"}),
    # the named kind's schema applies; "required" keeps a block without
    # kind from matching every branch
    scale={"type": "object", "required": ["kind"],
           "properties": {"kind": {"enum": list(SCALE_KINDS)}},
           "allOf": [{"if": {"required": ["kind"],
                             "properties": {"kind": {"const": kind}}},
                      "then": dict(schema, properties={"kind": True,
                                                       **schema["properties"]})}
                     for kind, (schema, _) in SCALE_KINDS.items()]},
    run={"type": "object"},
    tolerances=_options(
        ode_tol={"type": "number", "exclusiveMinimum": MIN_ODE_TOL,
                 "exclusiveMaximum": MAX_ODE_TOL},
        quad_tol={"type": "number", "exclusiveMinimum": 1e-14, "maximum": 1e-3},
        gap_tol={"type": "number", "exclusiveMinimum": 1e-12, "maximum": 0.1}),
)


@functools.cache
def _validator(command: str | None):
    """The validator of ``command``'s scenarios (any run block when None).

    Built and checked against the metaschema once per command:
    ``jsonschema.validate`` repeats that check on every call, and it costs
    far more than validating a document.
    """
    schema = SCENARIO_SCHEMA
    if command is not None:
        properties = dict(schema["properties"], run=RUN_OPTIONS[command])
        if command in COMMAND_SCALE_KINDS:
            properties["scale"] = dict(properties["scale"], properties={
                "kind": {"enum": COMMAND_SCALE_KINDS[command]}})
        schema = dict(schema, properties=properties)
    validator = jsonschema.validators.validator_for(schema)(schema)
    validator.check_schema(schema)
    return validator


def _check(doc, command: str | None):
    try:  # JSON has no NaN or infinity; the schema's range keywords pass NaN
        json.dumps(doc, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"scenario invalid: {exc}") from exc
    error = jsonschema.exceptions.best_match(_validator(command).iter_errors(doc))
    if error is not None:
        # the path names the field, where a range or type message quotes only its value
        where = "" if error.json_path == "$" else f"{error.json_path}: "
        raise InvalidParameter(f"scenario invalid: {where}{error.message}") from error


@dataclass(frozen=True)
class Tolerances:
    ode_tol: float = DEFAULT_ODE_TOL
    quad_tol: float = DEFAULT_QUAD_TOL
    gap_tol: float = DEFAULT_GAP_TOL


@dataclass(frozen=True)
class ScenarioConfig:
    mode: Mode
    scale: ScaleFunction   # a bloch.Scenario for segments and presets
    run: dict
    tolerances: Tolerances

    def plain_scale(self) -> ScaleFunction:
        """``scale``, under the name ``perfbench/refgen.py`` reads."""
        return self.scale


def parse_scenario(doc: dict, command: str | None = None,
                   tolerances: dict | None = None) -> ScenarioConfig:
    """Validate a scenario document and build its objects.

    ``command`` names the CLI command whose run options are checked;
    ``tolerances`` replace the document's own before the one validation.
    """
    own = doc.get("tolerances", {}) if isinstance(doc, dict) else None
    if tolerances and isinstance(own, dict):
        doc = dict(doc, tolerances={**own, **tolerances})
    _check(doc, command)

    mdoc = doc["mode"]
    mode = Mode(lam=float(mdoc["lambda"]), mass=float(mdoc["mass"]),
                tau0=float(mdoc["tau0"]),
                physical=bool(mdoc.get("physical", True)))

    sdoc = doc["scale"]
    scale = SCALE_KINDS[sdoc["kind"]][1](sdoc, mode)
    return ScenarioConfig(mode=mode, scale=scale, run=dict(doc.get("run", {})),
                          tolerances=Tolerances(**doc.get("tolerances", {})))


def load_scenario(path: str, command: str | None = None,
                  tolerances: dict | None = None) -> ScenarioConfig:
    """``parse_scenario`` of a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"scenario file is not valid JSON: {exc}") from exc
    return parse_scenario(doc, command, tolerances)
