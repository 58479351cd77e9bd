"""Trace sinks: JSONL stream, Prometheus textfile, in-memory buffer.

A sink is anything with ``emit(trace: StrideTrace)``; ``close()`` is
optional. The :class:`~repro.observability.trace.Tracer` fans every sealed
stride record out to all of its sinks and closes them on ``close()``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro._version import __version__
from repro.observability.trace import GROUPS, StrideTrace


class InMemorySink:
    """Keeps every trace record; used by tests and the bench harness."""

    def __init__(self) -> None:
        self.records: list[StrideTrace] = []

    def emit(self, trace: StrideTrace) -> None:
        self.records.append(trace)


class JsonlTraceWriter:
    """Appends one JSON object per stride to a file.

    The line layout is the trace schema (``repro.observability.schema``);
    each line is flushed immediately so a crashed run still leaves every
    completed stride on disk.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, trace: StrideTrace) -> None:
        json.dump(trace.as_dict(), self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class PrometheusTextfileExporter:
    """Maintains a Prometheus textfile with cumulative run totals.

    Written in the text exposition format consumed by node_exporter's
    textfile collector. The file is rewritten atomically (tmp + rename) on
    every emit, so a scraper never reads a torn file; ``every`` throttles the
    rewrite to one per N strides (the final totals land on ``close()``).

    ``labels`` stamps extra label pairs onto *every* series (the sharded
    serving layer passes ``{"shard": k}`` so one Prometheus job can scrape
    all workers without relabeling). With no extra labels the output is
    byte-identical to what this exporter has always produced.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        every: int = 1,
        *,
        labels: dict | None = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.every = every
        self.labels = dict(labels or {})
        self._extra = ",".join(
            f'{key}="{value}"' for key, value in sorted(self.labels.items())
        )
        self._emitted = 0
        self._aggregate = None

    def _line(self, name: str, value, inner: str = "") -> str:
        """One exposition line, with the extra labels merged in."""
        body = ",".join(part for part in (inner, self._extra) if part)
        return f"{name}{{{body}}} {value}" if body else f"{name} {value}"

    def emit(self, trace: StrideTrace) -> None:
        from repro.observability.trace import TraceAggregate

        if self._aggregate is None:
            self._aggregate = TraceAggregate()
        self._aggregate.add(trace)
        self._emitted += 1
        if self._emitted % self.every == 0:
            self._write()

    def close(self) -> None:
        if self._aggregate is not None:
            self._write()

    def render(self) -> str:
        """The current exposition text (also what lands in the file)."""
        agg = self._aggregate
        lines = [
            "# HELP disc_build_info Build metadata of the emitting process.",
            "# TYPE disc_build_info gauge",
            self._line("disc_build_info", 1, f'version="{__version__}"'),
            "# HELP disc_strides_total Window advances processed.",
            "# TYPE disc_strides_total counter",
            self._line("disc_strides_total", 0 if agg is None else agg.strides),
        ]
        if agg is None:
            return "\n".join(lines) + "\n"
        lines += [
            "# HELP disc_stride_seconds_total Wall time spent inside advance().",
            "# TYPE disc_stride_seconds_total counter",
            self._line("disc_stride_seconds_total", f"{sum(agg.elapsed):.9f}"),
        ]
        for group in GROUPS:
            values = getattr(agg, group.key)
            if values is None:
                continue
            lines += [
                f"# HELP {group.family} {group.help}",
                f"# TYPE {group.family} {group.kind}",
            ]
            for name, value in values.items():
                if isinstance(value, float):
                    value = format(value, group.float_format)
                lines.append(self._line(group.family, value, f'{group.label}="{name}"'))
        if agg.events:
            lines += [
                "# HELP disc_events_total Cluster evolution events.",
                "# TYPE disc_events_total counter",
            ]
            for kind in sorted(agg.events):
                lines.append(
                    self._line("disc_events_total", agg.events[kind], f'kind="{kind}"')
                )
        return "\n".join(lines) + "\n"

    def _write(self) -> None:
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(self.render(), encoding="utf-8")
        os.replace(tmp, self.path)
