"""Scenario-file ingestion: JSON schema, validation, object construction.

A scenario file fixes the mode, the scale function (or rotation-count
scenario), command-specific run options, and the three tolerances.
Unknown keys are rejected everywhere, run options included (``RUN_OPTIONS``
lists each command's), so typos fail loudly instead of silently running
with defaults.  Each scale kind is one ``SCALE_KINDS`` entry, which both
validates its block and builds its scale.  Validation walks the tables with
this module's own keyword table, ``_KEYWORDS``, in jsonschema's words: type,
enum, const, (exclusive) minimum and maximum, items, minItems, maxItems, oneOf,
required, additionalProperties false, properties, allOf, if/then, True.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .bloch import build_six_segment, build_twelve_segment, make_scenario, \
    perturb_scenario
from .errors import InvalidParameter
from .model import (
    DEFAULT_GAP_TOL,
    DEFAULT_ODE_TOL,
    DEFAULT_QUAD_TOL,
    MAX_ODE_TOL,
    MIN_ODE_TOL,
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


#: JSON Schema's type tests: a bool is no number, and 1.0 is an integer.
_TYPES = {"object": lambda x: isinstance(x, dict), "array": lambda x: isinstance(x, list),
          "boolean": lambda x: isinstance(x, bool),
          "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
          "integer": lambda x: _TYPES["number"](x) and (isinstance(x, int) or x.is_integer())}


def _one_of(x, branches, path):
    errors = [list(_errors(x, branch, path)) for branch in branches]
    if valid := [branch for branch, errs in zip(branches, errors) if not errs]:
        return len(valid) > 1 and f"{x!r} is valid under each of " + ", ".join(
            map(repr, valid[1:] + valid[:1]))
    # as best_match: the deepest error of the branches of x's type, if any
    typed = [e for b, errs in zip(branches, errors) if _TYPES[b["type"]](x) for e in errs]
    return ([max(typed, key=lambda e: len(e[0]))] if typed
            else f"{x!r} is not valid under any of the given schemas")


#: The keywords of the schema tables, checked as jsonschema checks them: each maps
#: (value, keyword argument, schema, path) to the message of the rule broken, the
#: (path, message) errors of the subschemas it applies, or a false value.
#: ``required`` names the first property missing; ``additionalProperties`` is false.
_KEYWORDS = {
    "type": lambda x, kind, s, p: not _TYPES[kind](x) and f"{x!r} is not of type {kind!r}",
    "enum": lambda x, enum, s, p: not any(  # True is not 1; the tables' values are scalars
        x == v and isinstance(x, bool) == isinstance(v, bool) for v in enum)
        and f"{x!r} is not one of {enum!r}",
    "const": lambda x, c, s, p: _KEYWORDS["enum"](x, [c], s, p) and f"{c!r} was expected",
    "minimum": lambda x, m, s, p: _TYPES["number"](x) and x < m
        and f"{x!r} is less than the minimum of {m!r}",
    "exclusiveMinimum": lambda x, m, s, p: _TYPES["number"](x) and x <= m
        and f"{x!r} is less than or equal to the minimum of {m!r}",
    "maximum": lambda x, m, s, p: _TYPES["number"](x) and x > m
        and f"{x!r} is greater than the maximum of {m!r}",
    "exclusiveMaximum": lambda x, m, s, p: _TYPES["number"](x) and x >= m
        and f"{x!r} is greater than or equal to the maximum of {m!r}",
    "minItems": lambda x, n, s, p: isinstance(x, list) and len(x) < n
        and f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}",
    "maxItems": lambda x, n, s, p: isinstance(x, list) and len(x) > n
        and f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}",
    "required": lambda x, names, s, p: isinstance(x, dict) and next(
        (f"{name!r} is a required property" for name in names if name not in x), None),
    "additionalProperties": lambda x, no, s, p: isinstance(x, dict) and (extras := [
        repr(k) for k in sorted(x, key=str) if k not in s["properties"]]) and (
        f"Additional properties are not allowed ({', '.join(extras)} "
        f"{'was' if len(extras) == 1 else 'were'} unexpected)"),
    "items": lambda x, item, s, p: isinstance(x, list) and [
        e for i, y in enumerate(x) for e in _errors(y, item, p + (i,))],
    "properties": lambda x, props, s, p: isinstance(x, dict) and [
        e for k, sub in props.items() if k in x for e in _errors(x[k], sub, p + (k,))],
    "allOf": lambda x, subs, s, p: [e for sub in subs for e in _errors(x, sub, p)],
    "if": lambda x, test, s, p: not any(_errors(x, test)) and _errors(x, s["then"], p),
    "then": lambda x, then, s, p: None,  # applied by "if"
    "oneOf": lambda x, branches, s, p: _one_of(x, branches, p),
}


def _errors(x, schema, path=()):
    """(path, message) of each rule ``x`` breaks, in schema order; a keyword
    outside ``_KEYWORDS`` raises KeyError, so that none passes unchecked."""
    for keyword, value in ({} if schema is True else schema).items():
        found = _KEYWORDS[keyword](x, value, schema, path)
        yield from [(path, found)] if isinstance(found, str) else found or ()


def _check(doc, command: str | None):
    """InvalidParameter naming a rule ``doc`` breaks under ``command``'s schema (any
    run block when None): the one at the shallowest path, then the first in schema order."""
    try:  # JSON has no NaN or infinity; the schema's range keywords pass NaN
        json.dumps(doc, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"scenario invalid: {exc}") from exc
    schema = SCENARIO_SCHEMA
    if command is not None:
        kinds = {"kind": {"enum": COMMAND_SCALE_KINDS.get(command, list(SCALE_KINDS))}}
        schema = dict(schema, properties=dict(schema["properties"], run=RUN_OPTIONS[command],
                                              scale=dict(schema["properties"]["scale"],
                                                         properties=kinds)))
    error = min(_errors(doc, schema), key=lambda e: len(e[0]), default=None)
    if error is not None:
        # the path names the field, where a range or type message quotes only its value
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in error[0])
        raise InvalidParameter(f"scenario invalid: {f'${where}: ' if where else ''}{error[1]}")


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
