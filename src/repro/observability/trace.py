"""Per-stride trace records and the tracer that collects them.

The paper's evaluation is built on *internal* measurements: Figure 7 counts
range searches per stride, Figure 8 ablates MS-BFS and epoch-based probing.
:class:`StrideTrace` is the record both are read from — one per window
advance, carrying the phase split of Algorithm 1/2 (COLLECT, the ex-core
split checks, the neo-core merge checks, index maintenance), the algorithm
counters (reachability classes, Theorem-1 checks skipped, MS-BFS activity),
and the :class:`~repro.index.stats.IndexStats` delta of the stride.

Instrumentation is strictly opt-in: a :class:`~repro.core.disc.DISC` built
without a tracer passes ``trace=None`` down the call tree and every
instrumentation site is a single ``is not None`` test, so the off path does
no timing, no snapshotting and no allocation.
"""

from __future__ import annotations

import math
import time
from statistics import mean

from repro.index.stats import FIELDS as INDEX_FIELDS
from repro.index.stats import IndexStats

#: Phase keys, in pipeline order (see ``DISC.advance``).
PHASES = ("collect", "split_checks", "merge_checks", "maintenance")

#: Algorithm counter names carried by every trace record.
COUNTERS = (
    "num_inserted",
    "num_deleted",
    "collect_touched",
    "ex_cores",
    "neo_cores",
    "retro_classes",
    "nascent_classes",
    "connectivity_checks",
    "theorem1_skips",
    "msbfs_expansions",
    "msbfs_queue_merges",
    "msbfs_early_exits",
)


class StrideTrace:
    """Everything observed during one window advance.

    Mutable by design: the COLLECT/CLUSTER/MS-BFS code increments the
    counters in place while the stride runs; :class:`Tracer` seals the record
    by emitting it to the sinks.
    """

    __slots__ = (
        "stride",
        "elapsed_s",
        "phases",
        "index",
        "store",
        "wal",
        "journal",
        "events",
        *COUNTERS,
    )

    def __init__(self, stride: int) -> None:
        self.stride = stride
        self.elapsed_s = 0.0
        self.phases: dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.index: IndexStats | None = None  # delta over the stride
        # PointStore occupancy gauges at end of stride; DISC.advance always
        # fills them in, a record built outside it leaves the key off.
        self.store: dict | None = None
        # Write-ahead-log counters at end of stride (WAL-enabled served
        # sessions only; batch runs leave this None and the key off).
        self.wal: dict | None = None
        # Evolution-journal (CDC) counters, same convention as ``wal``.
        self.journal: dict | None = None
        self.events: dict[str, int] = {}
        for name in COUNTERS:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        """JSON-friendly form — the JSONL trace schema (see ``schema.py``)."""
        index = self.index if self.index is not None else IndexStats()
        record = {
            "stride": self.stride,
            "elapsed_s": self.elapsed_s,
            "phases": dict(self.phases),
            "counters": {name: getattr(self, name) for name in COUNTERS},
            "index": index.as_dict(),
            "events": dict(self.events),
        }
        if self.store is not None:
            record["store"] = dict(self.store)
        if self.wal is not None:
            record["wal"] = dict(self.wal)
        if self.journal is not None:
            record["journal"] = dict(self.journal)
        return record

    def __repr__(self) -> str:
        return (
            f"StrideTrace(stride={self.stride}, "
            f"elapsed_s={self.elapsed_s:.6f}, "
            f"searches={0 if self.index is None else self.index.range_searches})"
        )


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (q in [0, 100]) of a non-empty
    sequence — numpy's default method.

    Nearest-rank made every p95 on fewer than 20 samples *the maximum*,
    so a single outlier stride dominated the loadgen/trace latency
    summaries of short runs. Interpolation degrades gracefully: p95 of
    two samples is 0.95 of the way between them, not the larger one.
    """
    ordered = sorted(values)
    h = (len(ordered) - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)


class TraceAggregate:
    """Running totals over every emitted stride trace."""

    def __init__(self) -> None:
        self.strides = 0
        self.elapsed: list[float] = []
        self.phases: dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.index = IndexStats()
        self.store: dict | None = None  # latest PointStore gauges seen
        self.wal: dict | None = None  # latest WAL counters seen (cumulative)
        self.journal: dict | None = None  # latest CDC-journal counters seen
        self.events: dict[str, int] = {}

    def add(self, trace: StrideTrace) -> None:
        self.strides += 1
        self.elapsed.append(trace.elapsed_s)
        if trace.store is not None:
            self.store = dict(trace.store)
        if trace.wal is not None:
            self.wal = dict(trace.wal)
        if trace.journal is not None:
            self.journal = dict(trace.journal)
        for name in PHASES:
            self.phases[name] += trace.phases[name]
        for name in COUNTERS:
            self.counters[name] += getattr(trace, name)
        if trace.index is not None:
            for name in INDEX_FIELDS:
                setattr(
                    self.index, name, getattr(self.index, name) + getattr(trace.index, name)
                )
        for kind, count in trace.events.items():
            self.events[kind] = self.events.get(kind, 0) + count

    def latency_summary(self) -> dict[str, float]:
        """Mean / p50 / p95 stride latency in seconds (zeros when empty)."""
        if not self.elapsed:
            return {"mean_stride_s": 0.0, "p50_stride_s": 0.0, "p95_stride_s": 0.0}
        return {
            "mean_stride_s": mean(self.elapsed),
            "p50_stride_s": percentile(self.elapsed, 50),
            "p95_stride_s": percentile(self.elapsed, 95),
        }

    def as_dict(self) -> dict:
        out = {
            "strides": self.strides,
            **self.latency_summary(),
            "phases": dict(self.phases),
            "counters": dict(self.counters),
            "index": self.index.as_dict(),
            "events": dict(self.events),
        }
        if self.store is not None:
            out["store"] = dict(self.store)
        if self.wal is not None:
            out["wal"] = dict(self.wal)
        if self.journal is not None:
            out["journal"] = dict(self.journal)
        return out

    def report(self) -> str:
        """Human-readable totals, one line per concern (operator format)."""
        if not self.strides:
            return "trace: no strides recorded"
        latency = self.latency_summary()
        lines = [
            f"trace: {self.strides} strides, "
            f"mean {latency['mean_stride_s'] * 1000:.2f} ms, "
            f"p50 {latency['p50_stride_s'] * 1000:.2f} ms, "
            f"p95 {latency['p95_stride_s'] * 1000:.2f} ms"
        ]
        total_phase = sum(self.phases.values())
        if total_phase > 0:
            share = ", ".join(
                f"{name.replace('_', ' ')} {self.phases[name] / total_phase:.0%}"
                for name in PHASES
            )
            lines.append(f"phases: {share}")
        c = self.counters
        lines.append(
            f"cores: {c['ex_cores']} ex, {c['neo_cores']} neo; "
            f"classes: {c['retro_classes']} retro, {c['nascent_classes']} nascent; "
            f"theorem-1 skipped {c['theorem1_skips']} checks"
        )
        lines.append(
            f"ms-bfs: {c['connectivity_checks']} checks, "
            f"{c['msbfs_expansions']} expansions, "
            f"{c['msbfs_queue_merges']} queue merges, "
            f"{c['msbfs_early_exits']} early exits"
        )
        idx = self.index
        lines.append(
            f"index: {idx.range_searches} range searches "
            f"({idx.range_searches / self.strides:.1f}/stride), "
            f"{idx.nodes_accessed} nodes, {idx.entries_scanned} entries, "
            f"{idx.epoch_prunes} epoch prunes"
        )
        if self.store is not None:
            s = self.store
            lines.append(
                f"store: {s['slots']}/{s['capacity']} slots "
                f"({s['occupancy']:.0%} occupied), {s['slabs']} slabs, "
                f"{s['recycled']} recycled, high water {s['high_water']}"
            )
        if self.wal is not None:
            w = self.wal
            lines.append(
                f"wal: {w['appends']} appends, {w['fsyncs']} fsyncs, "
                f"{w['bytes']} bytes, {w['replayed']} replayed, "
                f"{w['truncated_tail']} torn tails cut, "
                f"{w['tenant_restarts']} restarts"
            )
        if self.journal is not None:
            j = self.journal
            lines.append(
                f"journal: {j['appends']} records, {j['fsyncs']} fsyncs, "
                f"{j['bytes']} bytes, {j['reads']} reads, "
                f"{j['truncated_tail']} torn tails cut, "
                f"{j['compacted_segments']} segments compacted"
            )
        if self.events:
            lines.append(
                "events: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.events.items()))
            )
        return "\n".join(lines)


class Tracer:
    """Owns the stride numbering, the aggregate, and the configured sinks.

    Args:
        *sinks: objects with ``emit(trace)`` (and optionally ``close()``) —
            see :mod:`repro.observability.sinks`. Zero sinks is fine: the
            aggregate alone already powers ``report()`` and the bench
            harness.
    """

    def __init__(self, *sinks) -> None:
        self.sinks = list(sinks)
        self.aggregate = TraceAggregate()
        # When a served session attaches its WriteAheadLog here, every
        # emitted stride record is stamped with the log's counters.
        self.wal_source = None
        # Same for its EvolutionJournal (CDC) counters.
        self.journal_source = None
        self._next_stride = 0

    def begin(self) -> StrideTrace:
        """Open the trace record for the stride about to run."""
        trace = StrideTrace(self._next_stride)
        self._next_stride += 1
        return trace

    def emit(self, trace: StrideTrace) -> None:
        """Seal a stride record: fold into the aggregate, fan out to sinks."""
        if self.wal_source is not None:
            trace.wal = self.wal_source.stats.as_dict()
        if self.journal_source is not None:
            trace.journal = self.journal_source.stats.as_dict()
        self.aggregate.add(trace)
        for sink in self.sinks:
            sink.emit(trace)

    def close(self) -> None:
        """Flush and close every sink that supports it."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def report(self, runtime_stats=None) -> str:
        """Operator summary; merges the runtime report when stats are given.

        Args:
            runtime_stats: optional
                :class:`~repro.runtime.stats.RuntimeStats`; when present its
                :func:`~repro.monitoring.runtime_report` rendering is
                prepended, giving one combined end-of-run block.
        """
        parts = []
        if runtime_stats is not None:
            from repro.monitoring import runtime_report

            parts.append(runtime_report(runtime_stats))
        parts.append(self.aggregate.report())
        return "\n".join(parts)


perf_counter = time.perf_counter
