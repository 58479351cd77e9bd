"""Schema for JSONL trace records, with a dependency-free validator.

``TRACE_SCHEMA`` is an ordinary JSON-Schema document so external tooling can
validate trace files too, but the validator here is hand-rolled — the
container deliberately ships no ``jsonschema`` — and checks exactly what the
schema states: required keys, types, non-negativity, and the closed key sets
for ``phases`` / ``counters`` / ``index``.
"""

from __future__ import annotations

import json
import os

from repro.core.store import COUNTER_FIELDS as STORE_FIELDS
from repro.index.stats import FIELDS as INDEX_FIELDS
from repro.observability.trace import COUNTERS, PHASES
from repro.query.journal import JOURNAL_FIELDS
from repro.runtime.wal import WAL_FIELDS

TRACE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "DISC stride trace record",
    "type": "object",
    "required": ["stride", "elapsed_s", "phases", "counters", "index", "events"],
    "additionalProperties": False,
    "properties": {
        "stride": {"type": "integer", "minimum": 0},
        "elapsed_s": {"type": "number", "minimum": 0},
        "phases": {
            "type": "object",
            "required": list(PHASES),
            "additionalProperties": False,
            "properties": {
                name: {"type": "number", "minimum": 0} for name in PHASES
            },
        },
        "counters": {
            "type": "object",
            "required": list(COUNTERS),
            "additionalProperties": False,
            "properties": {
                name: {"type": "integer", "minimum": 0} for name in COUNTERS
            },
        },
        "index": {
            "type": "object",
            "required": list(INDEX_FIELDS),
            "additionalProperties": False,
            "properties": {
                name: {"type": "integer", "minimum": 0} for name in INDEX_FIELDS
            },
        },
        "events": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        # Optional: PointStore occupancy gauges, written by DISC.advance;
        # ``occupancy`` is a ratio, the rest are integers.
        "store": {
            "type": "object",
            "required": list(STORE_FIELDS),
            "additionalProperties": False,
            "properties": {
                name: (
                    {"type": "number", "minimum": 0, "maximum": 1}
                    if name == "occupancy"
                    else {"type": "integer", "minimum": 0}
                )
                for name in STORE_FIELDS
            },
        },
        # Optional: write-ahead-log counters (cumulative). Only WAL-enabled
        # served sessions carry it; batch runs leave the key off.
        "wal": {
            "type": "object",
            "required": list(WAL_FIELDS),
            "additionalProperties": False,
            "properties": {
                name: {"type": "integer", "minimum": 0} for name in WAL_FIELDS
            },
        },
        # Optional: evolution-journal (CDC) counters, same convention as
        # ``wal`` — only journal-enabled served sessions carry it.
        "journal": {
            "type": "object",
            "required": list(JOURNAL_FIELDS),
            "additionalProperties": False,
            "properties": {
                name: {"type": "integer", "minimum": 0}
                for name in JOURNAL_FIELDS
            },
        },
    },
}


class TraceSchemaError(ValueError):
    """A trace record does not match :data:`TRACE_SCHEMA`."""


def _fail(where: str, message: str) -> None:
    raise TraceSchemaError(f"{where}: {message}")


def _check_closed_ints(record, key: str, names, where: str) -> None:
    block = record.get(key)
    if not isinstance(block, dict):
        _fail(where, f"'{key}' must be an object")
    missing = set(names) - set(block)
    if missing:
        _fail(where, f"'{key}' missing {sorted(missing)}")
    extra = set(block) - set(names)
    if extra:
        _fail(where, f"'{key}' has unknown keys {sorted(extra)}")
    for name, value in block.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            _fail(where, f"'{key}.{name}' must be a non-negative integer")


def validate_trace_record(record: dict, where: str = "record") -> None:
    """Raise :class:`TraceSchemaError` unless ``record`` matches the schema."""
    if not isinstance(record, dict):
        _fail(where, "must be an object")
    required = TRACE_SCHEMA["required"]
    missing = set(required) - set(record)
    if missing:
        _fail(where, f"missing keys {sorted(missing)}")
    extra = set(record) - set(TRACE_SCHEMA["properties"])
    if extra:
        _fail(where, f"unknown keys {sorted(extra)}")
    stride = record["stride"]
    if not isinstance(stride, int) or isinstance(stride, bool) or stride < 0:
        _fail(where, "'stride' must be a non-negative integer")
    elapsed = record["elapsed_s"]
    if not isinstance(elapsed, (int, float)) or isinstance(elapsed, bool) or elapsed < 0:
        _fail(where, "'elapsed_s' must be a non-negative number")
    phases = record["phases"]
    if not isinstance(phases, dict):
        _fail(where, "'phases' must be an object")
    missing = set(PHASES) - set(phases)
    if missing:
        _fail(where, f"'phases' missing {sorted(missing)}")
    extra = set(phases) - set(PHASES)
    if extra:
        _fail(where, f"'phases' has unknown keys {sorted(extra)}")
    for name, value in phases.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
            _fail(where, f"'phases.{name}' must be a non-negative number")
    _check_closed_ints(record, "counters", COUNTERS, where)
    _check_closed_ints(record, "index", INDEX_FIELDS, where)
    if "store" in record:
        store = record["store"]
        if not isinstance(store, dict):
            _fail(where, "'store' must be an object")
        missing = set(STORE_FIELDS) - set(store)
        if missing:
            _fail(where, f"'store' missing {sorted(missing)}")
        extra = set(store) - set(STORE_FIELDS)
        if extra:
            _fail(where, f"'store' has unknown keys {sorted(extra)}")
        for name, value in store.items():
            if name == "occupancy":
                ok = (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and 0 <= value <= 1
                )
                if not ok:
                    _fail(where, "'store.occupancy' must be a ratio in [0, 1]")
            elif not isinstance(value, int) or isinstance(value, bool) or value < 0:
                _fail(where, f"'store.{name}' must be a non-negative integer")
    if "wal" in record:
        _check_closed_ints(record, "wal", WAL_FIELDS, where)
    if "journal" in record:
        _check_closed_ints(record, "journal", JOURNAL_FIELDS, where)
    events = record["events"]
    if not isinstance(events, dict):
        _fail(where, "'events' must be an object")
    for kind, count in events.items():
        if not isinstance(kind, str):
            _fail(where, "'events' keys must be strings")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            _fail(where, f"'events.{kind}' must be a non-negative integer")


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
