"""jsonschema's verdict on a scenario document (a test-only reference).

``scenario_io`` checks documents with its own keyword walker; here the same
tables go through jsonschema, each command's schema checked against the
metaschema first, and the verdict is read as ``scenario_io._check`` words
it: the ``best_match`` error, its JSON path and message.
"""

import functools

import jsonschema

from diracsea.scenario_io import COMMAND_SCALE_KINDS, RUN_OPTIONS, SCENARIO_SCHEMA


@functools.cache
def validator(command):
    """The jsonschema validator of ``command``'s scenarios (any run block when None)."""
    schema = SCENARIO_SCHEMA
    if command is not None:
        properties = dict(schema["properties"], run=RUN_OPTIONS[command])
        if command in COMMAND_SCALE_KINDS:
            properties["scale"] = dict(properties["scale"], properties={
                "kind": {"enum": COMMAND_SCALE_KINDS[command]}})
        schema = dict(schema, properties=properties)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def verdict(doc, command):
    """(number of errors, the ``scenario invalid: ...`` message of the best match)."""
    errors = list(validator(command).iter_errors(doc))
    error = jsonschema.exceptions.best_match(errors)
    if error is None:
        return 0, None
    where = "" if error.json_path == "$" else f"{error.json_path}: "
    return len(errors), f"scenario invalid: {where}{error.message}"
