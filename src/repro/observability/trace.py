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
from collections.abc import Callable
from dataclasses import dataclass
from statistics import mean

from repro.common.counters import CounterGroup
from repro.core.store import StoreGauges
from repro.index.stats import IndexStats
from repro.query.journal import JournalStats
from repro.runtime.wal import WalStats


@dataclass
class PhaseTimes(CounterGroup):
    """Wall seconds of each pipeline phase, in order (see ``DISC.advance``)."""

    collect: float = 0.0
    split_checks: float = 0.0
    merge_checks: float = 0.0
    maintenance: float = 0.0


@dataclass
class AlgorithmCounters(CounterGroup):
    """What COLLECT, the split/merge checks and MS-BFS did in one stride."""

    num_inserted: int = 0
    num_deleted: int = 0
    collect_touched: int = 0
    ex_cores: int = 0
    neo_cores: int = 0
    retro_classes: int = 0
    nascent_classes: int = 0
    connectivity_checks: int = 0
    theorem1_skips: int = 0
    msbfs_expansions: int = 0
    msbfs_queue_merges: int = 0
    msbfs_early_exits: int = 0
    #: connectivity checks the seeds settled by their own adjacency, with no
    #: search (counted in ``connectivity_checks`` too)
    certified_checks: int = 0
    #: CLUSTER scans that read a ball COLLECT had already searched
    reused_balls: int = 0


#: Phase keys, in pipeline order.
PHASES = tuple(PhaseTimes())

#: Algorithm counter names carried by every trace record.
COUNTERS = tuple(AlgorithmCounters())


@dataclass(frozen=True)
class Group:
    """One counter group of the trace, and how every export renders it.

    Attributes:
        key: block key in the JSONL record, and the attribute holding
            the group on :class:`StrideTrace` and :class:`TraceAggregate`.
        stats: the :class:`~repro.common.counters.CounterGroup` dataclass
            declaring the fields.
        summed: per-stride values summed over the run, present in every
            record; otherwise a reading (gauges, or a log's cumulative
            counters) whose latest value is kept, present once taken.
        family, kind, label, help: the Prometheus metric family, its type,
            the label naming a field, and the HELP text.
        report: the operator report line(s) for the run value, given the
            number of strides; ``None`` prints nothing.
        float_format: how Prometheus renders the float fields.
    """

    key: str
    stats: type[CounterGroup]
    summed: bool
    family: str
    kind: str
    label: str
    help: str
    report: Callable[[CounterGroup, int], str | None]
    float_format: str = ".9f"


def _phase_shares(phases: PhaseTimes, strides: int) -> str | None:
    total = sum(phases.values())
    if total <= 0:
        return None
    return "phases: " + ", ".join(
        f"{name.replace('_', ' ')} {seconds / total:.0%}"
        for name, seconds in phases.items()
    )


#: Every counter group of a trace record, in rendering order. Adding a
#: group is one entry here: the record, the aggregate, the schema, the
#: Prometheus textfile and the report all loop over this table.
GROUPS = (
    Group(
        "phases",
        PhaseTimes,
        summed=True,
        family="disc_phase_seconds_total",
        kind="counter",
        label="phase",
        help="Wall time per pipeline phase.",
        report=_phase_shares,
    ),
    Group(
        "counters",
        AlgorithmCounters,
        summed=True,
        family="disc_counter_total",
        kind="counter",
        label="counter",
        help="Algorithm counters (see trace schema).",
        report=lambda c, strides: (
            f"cores: {c.ex_cores} ex, {c.neo_cores} neo, "
            f"{c.reused_balls} balls reused from collect; "
            f"classes: {c.retro_classes} retro, {c.nascent_classes} nascent; "
            f"theorem-1 skipped {c.theorem1_skips} checks\n"
            f"ms-bfs: {c.connectivity_checks} checks "
            f"({c.certified_checks} certified by their seeds), "
            f"{c.msbfs_expansions} expansions, "
            f"{c.msbfs_queue_merges} queue merges, "
            f"{c.msbfs_early_exits} early exits"
        ),
    ),
    Group(
        "index",
        IndexStats,
        summed=True,
        family="disc_index_total",
        kind="counter",
        label="stat",
        help="Spatial-index statistics.",
        report=lambda i, strides: (
            f"index: {i.range_searches} range searches "
            f"({i.range_searches / strides:.1f}/stride), "
            f"{i.nodes_accessed} nodes, {i.entries_scanned} entries, "
            f"{i.epoch_prunes} epoch prunes"
        ),
    ),
    Group(
        "store",
        StoreGauges,
        summed=False,
        family="disc_store_gauge",
        kind="gauge",
        label="stat",
        help="PointStore arena occupancy gauges.",
        report=lambda s, strides: (
            f"store: {s.slots}/{s.capacity} slots "
            f"({s.occupancy:.0%} occupied), {s.slabs} slabs, "
            f"{s.recycled} recycled, high water {s.high_water}"
        ),
        float_format=".6f",
    ),
    Group(
        "wal",
        WalStats,
        summed=False,
        family="disc_wal_total",
        kind="counter",
        label="stat",
        help="Write-ahead-log counters (cumulative).",
        report=lambda w, strides: (
            f"wal: {w.appends} appends, {w.fsyncs} fsyncs, "
            f"{w.bytes} bytes, {w.replayed} replayed, "
            f"{w.truncated_tail} torn tails cut, "
            f"{w.tenant_restarts} restarts"
        ),
    ),
    Group(
        "journal",
        JournalStats,
        summed=False,
        family="disc_journal_total",
        kind="counter",
        label="stat",
        help="Evolution-journal (CDC) counters (cumulative).",
        report=lambda j, strides: (
            f"journal: {j.appends} records, {j.fsyncs} fsyncs, "
            f"{j.bytes} bytes, {j.reads} reads, "
            f"{j.truncated_tail} torn tails cut, "
            f"{j.compacted_segments} segments compacted"
        ),
    ),
)


def _start_groups(holder) -> None:
    """Summed groups start at zero; readings stay ``None`` until taken."""
    holder.events = {}
    for group in GROUPS:
        setattr(holder, group.key, group.stats() if group.summed else None)


def _blocks(holder, summed: bool) -> dict:
    """JSON blocks of ``holder``'s summed groups, or of its readings taken.

    A record lists the summed blocks, then ``events``, then the readings.
    """
    blocks = {}
    for group in GROUPS:
        value = getattr(holder, group.key)
        if group.summed == summed and value is not None:
            blocks[group.key] = value.as_dict()
    return blocks


class StrideTrace:
    """Everything observed during one window advance.

    Mutable by design: the COLLECT/CLUSTER/MS-BFS code increments
    ``counters`` in place while the stride runs, ``DISC.advance`` fills in
    the phase times, the index delta and the store gauges, and
    :class:`Tracer` takes the other readings and seals the record by
    emitting it to the sinks. Each :data:`GROUPS` key is an attribute.
    """

    __slots__ = ("stride", "elapsed_s", "events", *(g.key for g in GROUPS))

    def __init__(self, stride: int) -> None:
        self.stride = stride
        self.elapsed_s = 0.0
        _start_groups(self)

    def as_dict(self) -> dict:
        """JSON-friendly form — the JSONL trace schema (see ``schema.py``)."""
        return {
            "stride": self.stride,
            "elapsed_s": self.elapsed_s,
            **_blocks(self, summed=True),
            "events": dict(self.events),
            **_blocks(self, summed=False),
        }

    def __repr__(self) -> str:
        return (
            f"StrideTrace(stride={self.stride}, "
            f"elapsed_s={self.elapsed_s:.6f}, "
            f"searches={self.index.range_searches})"
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
    """Running totals over every emitted stride trace: summed groups are
    summed, readings keep their latest value."""

    def __init__(self) -> None:
        self.strides = 0
        self.elapsed: list[float] = []
        _start_groups(self)

    def add(self, trace: StrideTrace) -> None:
        self.strides += 1
        self.elapsed.append(trace.elapsed_s)
        for group in GROUPS:
            value = getattr(trace, group.key)
            if value is None:
                continue
            if group.summed:
                value = getattr(self, group.key) + value
            else:
                value = value.snapshot()
            setattr(self, group.key, value)
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
        return {
            "strides": self.strides,
            **self.latency_summary(),
            **_blocks(self, summed=True),
            "events": dict(self.events),
            **_blocks(self, summed=False),
        }

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
        for group in GROUPS:
            value = getattr(self, group.key)
            line = None if value is None else group.report(value, self.strides)
            if line is not None:
                lines.append(line)
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
        # Readings taken at every emit, by group key: a served session maps
        # "wal" and "journal" to the stats of its WAL and CDC journal.
        self.sources: dict[str, CounterGroup] = {}
        self._next_stride = 0

    def begin(self) -> StrideTrace:
        """Open the trace record for the stride about to run."""
        trace = StrideTrace(self._next_stride)
        self._next_stride += 1
        return trace

    def emit(self, trace: StrideTrace) -> None:
        """Seal a stride record: fold into the aggregate, fan out to sinks."""
        for key, stats in self.sources.items():
            setattr(trace, key, stats.snapshot())
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
