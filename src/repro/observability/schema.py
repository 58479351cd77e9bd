"""Schema for JSONL trace records, with a dependency-free validator.

``TRACE_SCHEMA`` is an ordinary JSON-Schema document, derived from the
counter groups of :data:`~repro.observability.trace.GROUPS`, so external
tooling can validate trace files too. The validator here is hand-rolled —
the container deliberately ships no ``jsonschema`` — and walks the schema,
checking exactly what it states: required keys, closed key sets, types
(a bool is not a number), and bounds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields

from repro.observability.trace import GROUPS


def _group_schema(group) -> dict:
    """A closed object of non-negative numbers, one per declared field."""
    return {
        "type": "object",
        "required": [field.name for field in fields(group.stats)],
        "additionalProperties": False,
        "properties": {
            field.name: {
                "type": "integer" if type(field.default) is int else "number",
                "minimum": 0,
                **field.metadata,
            }
            for field in fields(group.stats)
        },
    }


TRACE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "DISC stride trace record",
    "type": "object",
    "required": [
        "stride",
        "elapsed_s",
        *(group.key for group in GROUPS if group.summed),
        "events",
    ],
    "additionalProperties": False,
    "properties": {
        "stride": {"type": "integer", "minimum": 0},
        "elapsed_s": {"type": "number", "minimum": 0},
        **{group.key: _group_schema(group) for group in GROUPS if group.summed},
        "events": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        # Optional: the readings (store gauges, WAL and journal counters)
        # appear once taken; a batch run has no WAL or journal block.
        **{group.key: _group_schema(group) for group in GROUPS if not group.summed},
    },
}


class TraceSchemaError(ValueError):
    """A trace record does not match :data:`TRACE_SCHEMA`."""


def _fail(where: str, message: str) -> None:
    raise TraceSchemaError(f"{where}: {message}")


def _check(value, schema: dict, path: str, where: str) -> None:
    """Check ``value`` against the ``schema`` node found at ``path``."""
    subject = f"'{path}' " if path else ""
    if schema["type"] == "object":
        if not isinstance(value, dict):
            _fail(where, f"{subject}must be an object")
        if not all(isinstance(key, str) for key in value):
            _fail(where, f"{subject}keys must be strings")
        missing = set(schema.get("required", ())) - set(value)
        if missing:
            _fail(where, f"{subject}missing keys {sorted(missing)}")
        properties = schema.get("properties", {})
        extra = set(value) - set(properties)
        if extra and schema["additionalProperties"] is False:
            _fail(where, f"{subject}has unknown keys {sorted(extra)}")
        for key, item in value.items():
            inner = properties.get(key) or schema["additionalProperties"]
            _check(item, inner, f"{path}.{key}" if path else key, where)
        return
    # Every number in the schema has minimum 0; a ratio also has a maximum.
    kind = int if schema["type"] == "integer" else (int, float)
    if (
        not isinstance(value, kind)
        or isinstance(value, bool)
        or not 0 <= value <= schema.get("maximum", math.inf)
    ):
        upper = f" <= {schema['maximum']}" if "maximum" in schema else ""
        _fail(where, f"{subject}must be a non-negative {schema['type']}{upper}")


def validate_trace_record(record: dict, where: str = "record") -> None:
    """Raise :class:`TraceSchemaError` unless ``record`` matches the schema."""
    _check(record, TRACE_SCHEMA, "", where)


def validate_trace_file(path: str | os.PathLike) -> int:
    """Validate a JSONL trace file; returns the number of records.

    Raises :class:`TraceSchemaError` on the first invalid line (including
    lines that are not valid JSON) and requires stride numbers to be strictly
    increasing — a torn or interleaved file fails loudly.
    """
    count = 0
    last_stride = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(f"{where}: not valid JSON ({exc})") from exc
            validate_trace_record(record, where=where)
            if record["stride"] <= last_stride:
                _fail(where, f"stride {record['stride']} not increasing")
            last_stride = record["stride"]
            count += 1
    return count
