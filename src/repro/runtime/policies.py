"""Input-fault policies for the streaming path.

Real streams carry garbage: unparsable rows, NaN/inf coordinates, wrong
dimensionality, timestamps that jump backwards. :class:`InputGuard` sits
between the source and the windowing layer and applies one of three
policies per faulty record:

- ``strict`` — raise immediately (:class:`MalformedPointError`, or
  :class:`~repro.common.errors.StreamOrderError` for ordering faults) with
  full context. The default: fail loudly rather than cluster garbage.
- ``skip`` — divert the record to the dead-letter sink and continue.
- ``clamp`` — repair what is repairable (infinite coordinates are clamped
  to ±``clamp_limit``, out-of-order timestamps are lifted to the current
  watermark) and dead-letter the rest (NaN and dimensionality faults have
  no meaningful repair).

Every decision increments per-reason counters on a
:class:`~repro.runtime.stats.RuntimeStats`, so operators can alert on fault
rates instead of discovering them in the cluster output.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from collections.abc import Iterable, Iterator
from enum import Enum

from repro.common.canonical import canonical_json
from repro.common.errors import ReproError, StreamOrderError
from repro.common.points import StreamPoint
from repro.datasets.io import MalformedRecord
from repro.runtime.stats import RuntimeStats


class MalformedPointError(ReproError):
    """Raised under the ``strict`` policy for an unusable stream record."""


class FaultPolicy(str, Enum):
    """What to do with a malformed stream record."""

    STRICT = "strict"
    SKIP = "skip"
    CLAMP = "clamp"

    @classmethod
    def coerce(cls, value: "FaultPolicy | str") -> "FaultPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ReproError(
                f"unknown fault policy {value!r}; "
                f"expected one of {', '.join(p.value for p in cls)}"
            ) from None


class DeadLetterSink:
    """Collector of rejected records, optionally mirrored to a JSONL file.

    Entries are ``(reason, item)`` pairs where ``item`` is the offending
    :class:`~repro.common.points.StreamPoint` or
    :class:`~repro.datasets.io.MalformedRecord`. The in-memory list is
    always kept; when ``path`` is given each entry is also appended as one
    JSON object per line, so a crashed run's dead letters survive too.

    Note: dead-letter delivery is *at-least-once* across crash/resume — the
    slice of stream replayed after a resume may re-record entries that were
    dead-lettered between the last checkpoint and the crash. The
    :class:`~repro.runtime.stats.RuntimeStats` counters, which ride inside
    checkpoints, stay exact.

    Crash safety: each mirrored row carries a ``crc32`` field computed over
    its canonical encoding (the row minus the ``crc32`` key, sorted keys,
    compact separators), and :func:`read_dead_letters` accepts exactly the
    longest clean prefix of a file — a torn final line (crash mid-write) or
    a bit-rotted row is cut instead of poisoning the whole mirror.
    :meth:`close` flushes *and fsyncs*, so a drained run's dead letters are
    durable, not just buffered.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.entries: list[tuple[str, object]] = []
        self._handle = open(path, "a") if path else None

    def record(self, reason: str, item: object) -> None:
        self.entries.append((reason, item))
        if self._handle is not None:
            if isinstance(item, StreamPoint):
                row = {
                    "reason": reason,
                    "pid": item.pid,
                    "coords": [repr(c) for c in item.coords],
                    "time": item.time,
                }
            elif isinstance(item, MalformedRecord):
                row = {
                    "reason": reason,
                    "line_no": item.line_no,
                    "raw": item.raw,
                    "error": item.error,
                }
            else:  # pragma: no cover - future item kinds
                row = {"reason": reason, "item": repr(item)}
            row["crc32"] = zlib.crc32(_canonical_row(row))
            self._handle.write(json.dumps(row) + "\n")
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __len__(self) -> int:
        return len(self.entries)


def _canonical_row(row: dict) -> bytes:
    """CRC input: the row without its ``crc32`` field, canonically encoded."""
    return canonical_json({key: value for key, value in row.items() if key != "crc32"})


def read_dead_letters(path: str | os.PathLike) -> list[dict]:
    """Load a dead-letter mirror, keeping only its clean prefix.

    Returns the decoded rows up to (not including) the first line that is
    torn, not valid JSON, missing its ``crc32``, or fails the CRC check —
    the same clean-prefix semantics the write-ahead log's recovery scan
    applies to its segments. Unwritten suffixes are expected after a crash;
    they are cut silently rather than raised, because the prefix is still
    trustworthy and at-least-once delivery re-records the tail on resume.
    """
    rows: list[dict] = []
    try:
        lines = open(path, encoding="utf-8").read().split("\n")
    except OSError:
        return rows
    for line in lines:
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            break  # torn tail (crash mid-write)
        if not isinstance(row, dict) or "crc32" not in row:
            break
        if zlib.crc32(_canonical_row(row)) != row["crc32"]:
            break  # bit rot
        rows.append(row)
    return rows


class InputGuard:
    """Apply a :class:`FaultPolicy` to a stream, point by point.

    Args:
        policy: what to do with faulty records.
        stats: counters to update; a fresh one is created when omitted.
        dead_letter: sink for rejected records; a fresh in-memory one is
            created when omitted.
        enforce_order: reject/repair timestamps that move backwards. On by
            default; harmless for count-based windows (their synthetic
            timestamps are monotone) and required for time-based ones.
        clamp_limit: magnitude infinite coordinates are clamped to under
            the ``clamp`` policy.
    """

    def __init__(
        self,
        policy: FaultPolicy | str = FaultPolicy.STRICT,
        stats: RuntimeStats | None = None,
        dead_letter: DeadLetterSink | None = None,
        *,
        enforce_order: bool = True,
        clamp_limit: float = 1e12,
    ) -> None:
        self.policy = FaultPolicy.coerce(policy)
        self.stats = stats if stats is not None else RuntimeStats()
        self.dead_letter = dead_letter if dead_letter is not None else DeadLetterSink()
        self.enforce_order = enforce_order
        self.clamp_limit = float(clamp_limit)
        self.watermark: float | None = None
        self.dim: int | None = None

    def admit(
        self, item: StreamPoint | MalformedRecord
    ) -> StreamPoint | None:
        """Vet one stream item; return the (possibly repaired) point or None.

        ``None`` means the item was dead-lettered. Under ``strict`` a fault
        raises instead.
        """
        self.stats.points_seen += 1
        if isinstance(item, MalformedRecord):
            return self._reject(
                "unparsable",
                item,
                f"unparsable stream record at line {item.line_no}: "
                f"{item.raw!r} ({item.error})",
            )

        point = item
        clamped = False

        fault = self._coord_fault(point)
        if fault is not None:
            reason, clampable = fault
            if self.policy is FaultPolicy.CLAMP and clampable:
                point = self._clamp_coords(point)
                clamped = True
                self.stats.count_fault(reason)
            else:
                return self._reject(
                    reason,
                    point,
                    f"point {point.pid} has {reason.replace('_', ' ')}: "
                    f"coords={point.coords}",
                )

        if self.dim is None:
            self.dim = len(point.coords)
        elif len(point.coords) != self.dim:
            return self._reject(
                "bad_dim",
                point,
                f"point {point.pid} has {len(point.coords)} coordinates; "
                f"this stream is {self.dim}-dimensional",
            )

        if (
            self.enforce_order
            and self.watermark is not None
            and point.time < self.watermark
        ):
            if self.policy is FaultPolicy.CLAMP:
                self.stats.count_fault("out_of_order")
                point = point._replace(time=self.watermark)
                clamped = True
            elif self.policy is FaultPolicy.SKIP:
                self.stats.count_fault("out_of_order")
                self.stats.points_dead_lettered += 1
                self.dead_letter.record("out_of_order", point)
                return None
            else:
                self.stats.count_fault("out_of_order")
                raise StreamOrderError(
                    f"point {point.pid} arrived out of order: its timestamp "
                    f"{point.time} precedes the stream watermark "
                    f"{self.watermark}"
                )

        self.watermark = (
            point.time
            if self.watermark is None
            else max(self.watermark, point.time)
        )
        self.stats.points_admitted += 1
        if clamped:
            self.stats.points_clamped += 1
        return point

    def filter(
        self, stream: Iterable[StreamPoint | MalformedRecord]
    ) -> Iterator[StreamPoint]:
        """Generator form of :meth:`admit` over a whole stream."""
        for item in stream:
            point = self.admit(item)
            if point is not None:
                yield point

    # ------------------------------------------------------------- internals

    def _coord_fault(self, point: StreamPoint) -> tuple[str, bool] | None:
        """Return ``(reason, clampable)`` for a coordinate fault, else None."""
        has_inf = False
        for c in point.coords:
            if math.isnan(c):
                return "nan_coord", False
            if math.isinf(c):
                has_inf = True
        if not point.coords:
            return "bad_dim", False
        if has_inf:
            return "inf_coord", True
        return None

    def _clamp_coords(self, point: StreamPoint) -> StreamPoint:
        limit = self.clamp_limit
        coords = tuple(
            max(-limit, min(limit, c)) if math.isinf(c) else c
            for c in point.coords
        )
        return point._replace(coords=coords)

    def _reject(
        self, reason: str, item: object, message: str
    ) -> None:
        self.stats.count_fault(reason)
        if self.policy is FaultPolicy.STRICT:
            raise MalformedPointError(message)
        self.stats.points_dead_lettered += 1
        self.dead_letter.record(reason, item)
        return None

    # ------------------------------------------------------- state round-trip

    def export_state(self) -> dict:
        """Guard state for checkpoint payloads (watermark + learned dim)."""
        return {"watermark": self.watermark, "dim": self.dim}

    def restore_state(self, state: dict) -> None:
        raw = state.get("watermark")
        self.watermark = None if raw is None else float(raw)
        dim = state.get("dim")
        self.dim = None if dim is None else int(dim)
