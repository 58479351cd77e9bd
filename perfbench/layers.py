"""Per-layer metrics of a traced run, from spans, counters and server stats.

A span name is ``"<layer>:<call>"`` (see :mod:`perfbench.spans`). Times per
stride divide a layer's self time by the number of ``DISC.advance`` spans.
A layer the workload never enters reads 0. Percentiles here are taken over
whatever the traced window holds (a checkpoint every 16 strides gives only
a handful); the ten-beyond rule of :mod:`perfbench.stats` governs the
end-to-end metrics, which are the ones runs are compared on.
"""

from __future__ import annotations

from perfbench.spans import self_times
from perfbench.stats import interpolate


def _pct(values, q: float) -> float:
    return interpolate(sorted(values), q) if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_report(
    spans: list[list],
    counters: dict,
    *,
    wall_s: float,
    lag_ms=(),
    measured_root_s: float | None = None,
    extras: dict | None = None,
) -> dict[str, float]:
    """Every per-layer metric of ``workloads.json`` by name.

    Args:
        spans: every span row of the traced window (see
            :class:`~perfbench.spans.SpanRecorder`).
        counters: the DISC tracers' summed algorithm counters and
            IndexStats fields.
        wall_s: length of the traced window (for busy shares).
        lag_ms: loop-lag probe samples (served only).
        measured_root_s: the workload's own stopwatch total over the root
            calls (offline: every timed ``DISC.advance``); coverage compares
            the named layers' self times against it. ``None`` compares
            against the root spans themselves.
        extras: measurements made outside the spans (WAL/journal counter
            deltas, checkpoint size, acks, queue depth, tracing overhead).
    """
    extras = extras or {}
    selfs = self_times(spans)
    durs: dict[str, list[float]] = {}
    own: dict[str, float] = {}
    tagged: dict[str, list[tuple]] = {}
    root_of: list[int] = []
    for i, row in enumerate(spans):
        parent = row[3]
        root_of.append(i if parent is None else root_of[parent])
        if row[2] is None:
            continue  # still open when the spans were written
        layer = row[6]
        durs.setdefault(layer, []).append(row[2] - row[1])
        own[layer] = own.get(layer, 0.0) + selfs[i]
        tagged.setdefault(layer, []).append((row[2] - row[1], row[5]))

    strides = len(durs.get("core.disc", ())) or 1
    per_stride_ms = lambda layer: own.get(layer, 0.0) / strides * 1e3  # noqa: E731
    count = lambda layer: len(durs.get(layer, ()))  # noqa: E731
    c = counters
    checks = c.get("connectivity_checks", 0)
    skips = c.get("theorem1_skips", 0)

    # Coverage: the self time of the named layers under the root spans, over
    # the root's time. The root's own self time and DISC.advance's own (the
    # tracer's bookkeeping and any call no wrapper covers) belong to no
    # named layer; they are reported as unattributed, so a missing wrapper
    # lowers coverage instead of hiding in some layer.
    root = "runtime.supervisor" if "runtime.supervisor" in durs else "core.disc"
    unnamed = {root, "core.disc"}
    covered = sum(
        selfs[i]
        for i, row in enumerate(spans)
        if spans[root_of[i]][6] == root and row[6] not in unnamed
    )
    reference = measured_root_s if measured_root_s is not None else sum(durs.get(root, ()))

    stride_feeds = [d for d, closed in tagged.get("runtime.supervisor", ()) if closed]
    checkpoints = [
        a + b
        for a, b in zip(durs.get("runtime.store.to_checkpoint", ()), durs.get("runtime.store.save", ()))
    ]
    dispatch = tagged.get("serve.server.dispatch", ())
    frames = count("serve.protocol.encode")
    decoded = sum(durs.get("serve.protocol.decode", ()))
    decoded_frames = sum(1 for row in spans if row[0] == "serve.protocol.decode:decode_frame")
    journal_strides = count("query.journal.record")

    return {
        "index.range_searches_per_stride": c.get("range_searches", 0) / strides,
        "index.nodes_accessed_per_stride": c.get("nodes_accessed", 0) / strides,
        "index.entries_scanned_per_stride": c.get("entries_scanned", 0) / strides,
        "index.epoch_prunes_per_stride": c.get("epoch_prunes", 0) / strides,
        "index.self_ms_per_stride": per_stride_ms("index"),
        "core.collect.ms_per_stride": per_stride_ms("core.collect"),
        "core.collect.touched_per_stride": c.get("collect_touched", 0) / strides,
        "core.cluster.split_ms_per_stride": per_stride_ms("core.cluster.split"),
        "core.cluster.merge_ms_per_stride": per_stride_ms("core.cluster.merge"),
        "core.cluster.ex_cores_per_stride": c.get("ex_cores", 0) / strides,
        "core.cluster.neo_cores_per_stride": c.get("neo_cores", 0) / strides,
        "core.msbfs.ms_per_stride": per_stride_ms("core.msbfs"),
        "core.msbfs.checks_per_stride": checks / strides,
        "core.msbfs.expansions_per_stride": c.get("msbfs_expansions", 0) / strides,
        "core.msbfs.theorem1_skip_ratio": _ratio(skips, skips + checks),
        "core.msbfs.early_exit_ratio": _ratio(c.get("msbfs_early_exits", 0), checks),
        "core.state.snapshot_ms_p50": _pct(durs.get("core.state.snapshot", ()), 50) * 1e3,
        "core.state.snapshots_per_stride": count("core.state.snapshot") / strides,
        "core.state.maintenance_ms_per_stride": per_stride_ms("core.state.maintenance"),
        "runtime.supervisor.feed_busy_share": _ratio(
            sum(durs.get("runtime.supervisor", ())), wall_s
        ),
        "runtime.supervisor.stride_feed_ms_p50": _pct(stride_feeds, 50) * 1e3,
        "runtime.supervisor.stride_feed_ms_p99": _pct(stride_feeds, 99) * 1e3,
        "runtime.supervisor.self_ms_per_stride": per_stride_ms("runtime.supervisor"),
        "runtime.wal.append_us_per_point": _mean(durs.get("runtime.wal.append", ())) * 1e6,
        "runtime.wal.commit_ms_p50": _pct(durs.get("runtime.wal.commit", ()), 50) * 1e3,
        "runtime.wal.fsyncs_per_ack": _ratio(extras.get("wal_fsyncs", 0), extras.get("acks", 0)),
        "runtime.wal.bytes_per_point": _ratio(
            extras.get("wal_bytes", 0), extras.get("wal_appends", 0)
        ),
        "runtime.store.checkpoint_ms_p50": _pct(checkpoints, 50) * 1e3,
        "runtime.store.checkpoint_bytes": extras.get("checkpoint_bytes", 0),
        "runtime.store.checkpoints_per_stride": count("runtime.store.save") / strides,
        "query.journal.record_ms_p50": _pct(durs.get("query.journal.record", ()), 50) * 1e3,
        "query.journal.publish_ms_p50": _pct(durs.get("query.journal.publish", ()), 50) * 1e3,
        "query.journal.fsyncs_per_stride": _ratio(
            extras.get("journal_fsyncs", 0), journal_strides
        ),
        "query.journal.bytes_per_stride": _ratio(
            extras.get("journal_bytes", 0), journal_strides
        ),
        "serve.protocol.decode_us_per_frame": _ratio(decoded, decoded_frames) * 1e6,
        "serve.protocol.encode_us_per_frame": _ratio(
            sum(durs.get("serve.protocol.encode", ())), frames
        )
        * 1e6,
        "serve.session.offer_ms_p50": _pct(durs.get("serve.session.offer", ()), 50) * 1e3,
        "serve.session.queue_depth_max": extras.get("queue_depth_max", 0),
        "serve.session.classify_us_p50": _pct(durs.get("serve.session.classify", ()), 50)
        * 1e6,
        "serve.session.membership_us_p50": _pct(
            durs.get("serve.session.membership", ()), 50
        )
        * 1e6,
        "serve.session.publish_ms_p50": _pct(durs.get("serve.session.publish", ()), 50) * 1e3,
        "serve.server.loop_lag_ms_p99": _pct(list(lag_ms), 99),
        "serve.server.dispatch_ingest_ms_p50": _pct(
            [d for d, op in dispatch if op == "INGEST"], 50
        )
        * 1e3,
        "serve.server.dispatch_query_ms_p50": _pct(
            [d for d, op in dispatch if op == "QUERY"], 50
        )
        * 1e3,
        "trace.overhead_pct": extras.get("overhead_pct", 0.0),
        "trace.coverage_pct": _ratio(covered, reference) * 100.0,
        "trace.unattributed_ms_per_stride": (reference - covered) / strides * 1e3,
    }
