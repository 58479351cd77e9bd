"""Reading and writing point streams and clustering results.

Two interchange formats:

- **CSV**: one point per line. With a header, the columns ``pid`` and
  ``time`` are recognised by name and every other column is a coordinate (in
  header order). Without a header, all columns are coordinates and pid/time
  default to the line number.
- **JSONL**: one JSON object per line with keys ``coords`` (required),
  ``pid`` and ``time`` (optional, defaulting to the line number).

Label output is CSV with columns ``pid,label,category`` (noise rows carry
label -1), so results can be joined back onto the input stream.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from repro.common.errors import ReproError
from repro.common.points import StreamPoint
from repro.common.snapshot import CATEGORY_NAMES, Clustering


class StreamFormatError(ReproError):
    """Raised when an input file cannot be parsed as a point stream."""


class MalformedRecord(NamedTuple):
    """One input record that could not be parsed as a stream point.

    Yielded by :func:`read_stream_lenient` in place of a
    :class:`~repro.common.points.StreamPoint`, so a downstream fault policy
    (``repro.runtime.policies``) can decide whether to raise, skip, or
    dead-letter it instead of the reader aborting the whole stream.
    """

    line_no: int
    raw: str
    error: str


def read_stream(path: str, fmt: str | None = None) -> Iterator[StreamPoint]:
    """Yield :class:`StreamPoint`s from a CSV or JSONL file.

    Args:
        path: input file.
        fmt: "csv" or "jsonl"; inferred from the extension when omitted.
    """
    if fmt is None:
        fmt = _infer_format(path)
    if fmt == "csv":
        yield from _read_csv(path)
    elif fmt == "jsonl":
        yield from _read_jsonl(path)
    else:
        raise StreamFormatError(f"unknown stream format: {fmt}")


def read_stream_lenient(
    path: str, fmt: str | None = None
) -> Iterator[StreamPoint | MalformedRecord]:
    """Like :func:`read_stream`, but yield bad records instead of raising.

    Rows that fail to parse come out as :class:`MalformedRecord` entries in
    stream position, leaving the skip/raise decision to the caller (see
    ``repro.runtime.policies.InputGuard``). File-level problems — a missing
    file, an unknown format — still raise :class:`StreamFormatError`.
    """
    if fmt is None:
        fmt = _infer_format(path)
    if fmt == "csv":
        yield from _read_csv(path, lenient=True)
    elif fmt == "jsonl":
        yield from _read_jsonl(path, lenient=True)
    else:
        raise StreamFormatError(f"unknown stream format: {fmt}")


def _infer_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext in (".csv", ".txt"):
        return "csv"
    if ext in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    raise StreamFormatError(
        f"cannot infer stream format from {path!r}; pass fmt explicitly"
    )


def _read_csv(
    path: str, lenient: bool = False
) -> Iterator[StreamPoint | MalformedRecord]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            return
        header = _detect_header(first)
        if header is None:
            # No header: the first row is data.
            yield _guarded(_csv_point, first, 0, None, lenient=lenient)
            for i, row in enumerate(reader, start=1):
                if row:
                    yield _guarded(_csv_point, row, i, None, lenient=lenient)
        else:
            for i, row in enumerate(reader):
                if row:
                    yield _guarded(_csv_point, row, i, header, lenient=lenient)


def _guarded(
    parse, row, line_no: int, header, *, lenient: bool
) -> StreamPoint | MalformedRecord:
    """Run one row parser, converting failures when ``lenient``."""
    try:
        return parse(row, line_no, header)
    except StreamFormatError as exc:
        if not lenient:
            raise
        return MalformedRecord(line_no, ",".join(map(str, row)), str(exc))


def _detect_header(row: list[str]) -> dict[str, int] | None:
    """Return column mapping when the first row is a header, else None."""
    try:
        [float(cell) for cell in row]
    except ValueError:
        return {name.strip().lower(): i for i, name in enumerate(row)}
    return None


def _csv_point(
    row: list[str], line_no: int, header: dict[str, int] | None
) -> StreamPoint:
    try:
        if header is None:
            coords = tuple(float(cell) for cell in row)
            return StreamPoint(line_no, coords, float(line_no))
        pid = int(float(row[header["pid"]])) if "pid" in header else line_no
        time = float(row[header["time"]]) if "time" in header else float(line_no)
        special = {header.get("pid"), header.get("time")}
        coords = tuple(
            float(cell)
            for i, cell in enumerate(row)
            if i not in special
        )
        return StreamPoint(pid, coords, time)
    except (ValueError, IndexError) as exc:
        raise StreamFormatError(
            f"bad CSV row {line_no}: {row!r} ({exc})"
        ) from exc


def _read_jsonl(
    path: str, lenient: bool = False
) -> Iterator[StreamPoint | MalformedRecord]:
    with open(path) as handle:
        for i, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                coords = tuple(float(c) for c in obj["coords"])
                pid = int(obj.get("pid", i))
                time = float(obj.get("time", i))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if lenient:
                    yield MalformedRecord(i, line[:200], str(exc))
                    continue
                raise StreamFormatError(
                    f"bad JSONL line {i}: {line[:80]!r} ({exc})"
                ) from exc
            yield StreamPoint(pid, coords, time)


def write_stream(path: str, points: Iterable[StreamPoint], fmt: str | None = None) -> int:
    """Write points to a CSV (with header) or JSONL file; returns the count."""
    if fmt is None:
        fmt = _infer_format(path)
    count = 0
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            header_written = False
            for point in points:
                if not header_written:
                    dims = [f"x{d}" for d in range(len(point.coords))]
                    writer.writerow(["pid", "time", *dims])
                    header_written = True
                writer.writerow([point.pid, point.time, *point.coords])
                count += 1
    elif fmt == "jsonl":
        with open(path, "w") as handle:
            for point in points:
                handle.write(
                    json.dumps(
                        {
                            "pid": point.pid,
                            "time": point.time,
                            "coords": list(point.coords),
                        }
                    )
                )
                handle.write("\n")
                count += 1
    else:
        raise StreamFormatError(f"unknown stream format: {fmt}")
    return count


def write_labels(path: str, clustering: Clustering) -> int:
    """Write ``pid,label,category`` CSV rows; returns the row count."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pid", "label", "category"])
        names = CATEGORY_NAMES[clustering.cat].tolist()
        writer.writerows(zip(clustering.pid.tolist(), clustering.label.tolist(), names))
    return clustering.num_points
