"""Scenario-file ingestion: JSON schema, validation, object construction.

A scenario file fixes the mode, the scale function (or rotation-count
scenario), command-specific run options, and the three tolerances.
Unknown keys are rejected everywhere, run options included (``RUN_OPTIONS``
lists each command's), so typos fail loudly instead of silently running
with defaults.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace

import numpy as np
import jsonschema

from .bloch import build_six_segment, build_twelve_segment, make_scenario, \
    perturb_scenario
from .errors import InvalidParameter
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
from .studies import StudyKind

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
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
        grid=_NUMBERS, phi=_PROBE, r_max=_POSITIVE, slack=_NUMBER,
        **{"lambda": _options(kind={"type": "string"}, value=_NUMBER,
                              k=_NUMBER, exponent=_NUMBER)}),
}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mode", "scale"],
    "properties": {
        "mode": {
            "type": "object",
            "additionalProperties": False,
            "required": ["lambda", "mass", "tau0"],
            "properties": {
                "lambda": _NUMBER,
                "mass": _POSITIVE,
                "tau0": {"type": "number", "minimum": 0,
                         "exclusiveMaximum": float(np.pi)},
                "physical": {"type": "boolean"},
            },
        },
        "scale": {
            "type": "object",
            "oneOf": [
                {
                    "additionalProperties": False,
                    "required": ["kind", "r_max"],
                    "properties": {"kind": {"const": "dust"},
                                   "r_max": _POSITIVE},
                },
                {
                    "additionalProperties": False,
                    "required": ["kind", "r"],
                    "properties": {"kind": {"const": "constant"},
                                   "r": _POSITIVE},
                },
                {
                    "additionalProperties": False,
                    "required": ["kind", "taus", "values", "r_max"],
                    "properties": {
                        "kind": {"const": "smooth_table"},
                        "taus": {"type": "array", "items": _NUMBER,
                                 "minItems": 4},
                        "values": {"type": "array", "items": _NUMBER,
                                   "minItems": 4},
                        "r_max": _POSITIVE,
                    },
                },
                {
                    "additionalProperties": False,
                    "required": ["kind", "breakpoints", "values"],
                    "properties": {
                        "kind": {"const": "piecewise"},
                        "breakpoints": {"type": "array", "items": _NUMBER,
                                        "minItems": 2},
                        "values": {"type": "array", "items": _POSITIVE,
                                   "minItems": 1},
                    },
                },
                {
                    "additionalProperties": False,
                    "required": ["kind", "segments"],
                    "properties": {
                        "kind": {"const": "segments"},
                        "segments": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "array", "minItems": 2,
                                      "maxItems": 2, "items": _POSITIVE},
                        },
                    },
                },
                {
                    "additionalProperties": False,
                    "required": ["kind", "name"],
                    "properties": {
                        "kind": {"const": "preset"},
                        "name": {"enum": ["six_segment", "twelve_segment"]},
                        "perturb": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["index", "dp"],
                            "properties": {"index": {"type": "integer",
                                                     "minimum": 0},
                                           "dp": _NUMBER},
                        },
                    },
                },
            ],
        },
        "run": {"type": "object"},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ode_tol": {"type": "number", "exclusiveMinimum": 1e-14,
                            "exclusiveMaximum": 1e-4},
                "quad_tol": {"type": "number", "exclusiveMinimum": 1e-14,
                             "maximum": 1e-3},
                "gap_tol": {"type": "number", "exclusiveMinimum": 1e-12,
                            "maximum": 0.1},
            },
        },
    },
}


@functools.cache
def _validator(command: str | None):
    """The validator of ``command``'s scenarios (any run block when None).

    Built and checked against the metaschema once per command:
    ``jsonschema.validate`` repeats that check on every call, and it costs
    far more than validating a document.
    """
    schema = SCENARIO_SCHEMA
    if command is not None:
        schema = dict(schema, properties=dict(schema["properties"],
                                              run=RUN_OPTIONS[command]))
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
        raise InvalidParameter(f"scenario invalid: {error.message}") from error


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
    ``tolerances`` replace the document's own before they are validated.
    """
    _check(doc, command)
    if tolerances:
        doc = dict(doc, tolerances={**doc.get("tolerances", {}), **tolerances})
        _check(doc, command)

    mdoc = doc["mode"]
    mode = Mode(lam=float(mdoc["lambda"]), mass=float(mdoc["mass"]),
                tau0=float(mdoc["tau0"]),
                physical=bool(mdoc.get("physical", True)))

    sdoc = doc["scale"]
    kind = sdoc["kind"]
    if kind == "dust":
        scale = dust_scale(float(sdoc["r_max"]))
    elif kind == "constant":
        scale = constant_scale(float(sdoc["r"]))
    elif kind == "smooth_table":
        scale = smooth_table_scale(sdoc["taus"], sdoc["values"],
                                   float(sdoc["r_max"]))
    elif kind == "piecewise":
        scale = PiecewiseConstantScale(breakpoints=tuple(sdoc["breakpoints"]),
                                       values=tuple(sdoc["values"]))
    elif kind == "segments":
        scale = make_scenario(mode, sdoc["segments"])
    elif kind == "preset":
        builder = {"six_segment": build_six_segment,
                   "twelve_segment": build_twelve_segment}[sdoc["name"]]
        # the document's mode, so that Scenario checks its tau0
        scale = replace(builder(lam=mode.lam, mass=mode.mass), mode=mode)
        if "perturb" in sdoc:
            scale = perturb_scenario(scale, int(sdoc["perturb"]["index"]),
                                     float(sdoc["perturb"]["dp"]))
    else:  # pragma: no cover - schema forbids
        raise InvalidParameter(f"unknown scale kind {kind!r}")

    tdoc = doc.get("tolerances", {})
    tols = Tolerances(
        ode_tol=float(tdoc.get("ode_tol", DEFAULT_ODE_TOL)),
        quad_tol=float(tdoc.get("quad_tol", DEFAULT_QUAD_TOL)),
        gap_tol=float(tdoc.get("gap_tol", DEFAULT_GAP_TOL)),
    )
    return ScenarioConfig(mode=mode, scale=scale, run=dict(doc.get("run", {})),
                          tolerances=tols)


def load_scenario(path: str, command: str | None = None,
                  tolerances: dict | None = None) -> ScenarioConfig:
    """``parse_scenario`` of a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"scenario file is not valid JSON: {exc}") from exc
    return parse_scenario(doc, command, tolerances)
