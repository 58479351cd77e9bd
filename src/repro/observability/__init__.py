"""Stride-level observability for the DISC reproduction.

Opt-in instrumentation of the streaming pipeline: phase timings, algorithm
counters and index-statistics deltas per window advance, fanned out to JSONL
traces, Prometheus textfiles, or in-memory buffers. Off by default and free
when off — see :mod:`repro.observability.trace`. Every counter group is one
entry of :data:`GROUPS`, from which the record, the schema, the textfile and
the report are derived.
"""

from repro.observability.schema import (
    TRACE_SCHEMA,
    TraceSchemaError,
    validate_trace_file,
    validate_trace_record,
)
from repro.observability.sinks import (
    InMemorySink,
    JsonlTraceWriter,
    PrometheusTextfileExporter,
)
from repro.observability.trace import (
    COUNTERS,
    GROUPS,
    PHASES,
    Group,
    StrideTrace,
    TraceAggregate,
    Tracer,
    percentile,
)

__all__ = [
    "COUNTERS",
    "GROUPS",
    "PHASES",
    "TRACE_SCHEMA",
    "Group",
    "InMemorySink",
    "JsonlTraceWriter",
    "PrometheusTextfileExporter",
    "StrideTrace",
    "TraceAggregate",
    "TraceSchemaError",
    "Tracer",
    "percentile",
    "validate_trace_file",
    "validate_trace_record",
]
