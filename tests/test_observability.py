"""The stride-trace layer: off-by-default, counters, sinks, schema, wiring.

Covers the contract the benches and the CLI build on: a DISC without a
tracer emits nothing and clusters identically; a DISC with one emits a
schema-valid record per advance whose index deltas sum to the backend's
total :class:`~repro.index.stats.IndexStats` delta (the Figure 7 source of
truth) and whose MS-BFS / epoch counters reflect the ablation flags (the
Figure 8 source of truth).
"""

import itertools
import json
from pathlib import Path
from unittest import mock

import pytest

from repro._version import __version__
from repro.common.config import WindowSpec
from repro.common.errors import ConfigurationError
from repro.core.disc import DISC
from repro.observability import (
    COUNTERS,
    PHASES,
    InMemorySink,
    JsonlTraceWriter,
    PrometheusTextfileExporter,
    StrideTrace,
    TraceAggregate,
    TraceSchemaError,
    Tracer,
    percentile,
    validate_trace_file,
    validate_trace_record,
)
from repro.query.journal import JournalStats
from repro.runtime.wal import WalStats
from repro.serve.config import SessionConfig
from repro.serve.session import TenantSession
from repro.window.sliding import materialize_slides
from tests.conftest import clustered_stream

GOLDEN = Path(__file__).parent / "golden"


def traced_run(seed=1, n=240, spec=WindowSpec(80, 20), **disc_kwargs):
    """Drive a traced DISC over a blob stream; return (disc, tracer, sink)."""
    sink = InMemorySink()
    tracer = Tracer(sink)
    disc = DISC(0.7, 4, tracer=tracer, **disc_kwargs)
    for delta_in, delta_out in materialize_slides(
        clustered_stream(seed, n), spec
    ):
        disc.advance(delta_in, delta_out)
    return disc, tracer, sink


class TestPercentile:
    def test_single_value(self):
        assert percentile([3.0], 0) == 3.0
        assert percentile([3.0], 50) == 3.0
        assert percentile([3.0], 95) == 3.0
        assert percentile([3.0], 100) == 3.0

    def test_two_values_interpolate(self):
        # p50 of two samples is their midpoint, p95 is 95% of the way up —
        # not simply the max, which is what nearest-rank degenerated to.
        assert percentile([10.0, 20.0], 0) == 10.0
        assert percentile([10.0, 20.0], 50) == 15.0
        assert percentile([10.0, 20.0], 95) == pytest.approx(19.5)
        assert percentile([10.0, 20.0], 100) == 20.0

    def test_interpolated_ranks(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 95) == pytest.approx(95.05)
        assert percentile(values, 100) == 100

    def test_p95_on_tiny_sample_is_not_the_max(self):
        # The loadgen regression: with < 20 strides, nearest-rank p95 was
        # always the maximum, so one outlier stride defined the report.
        values = [1.0] * 9 + [100.0]
        assert percentile(values, 95) < 100.0
        assert percentile(values, 95) > 1.0
        assert percentile(values, 50) == 1.0

    def test_matches_numpy_linear_method(self):
        values = [2.0, 4.0, 8.0, 16.0]
        # numpy.percentile(values, q) reference values (linear method).
        assert percentile(values, 25) == pytest.approx(3.5)
        assert percentile(values, 75) == pytest.approx(10.0)

    def test_input_order_irrelevant(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0


class TestStrideTrace:
    def test_fresh_record_is_schema_valid(self):
        trace = StrideTrace(0)
        validate_trace_record(trace.as_dict())

    def test_counters_start_at_zero(self):
        trace = StrideTrace(7)
        assert trace.stride == 7
        for name in COUNTERS:
            assert getattr(trace.counters, name) == 0
        assert set(trace.phases) == set(PHASES)

    def test_repr_mentions_stride(self):
        assert "stride=4" in repr(StrideTrace(4))


class TestOffByDefault:
    def test_disc_has_no_tracer_unless_given(self):
        assert DISC(0.7, 4).tracer is None

    def test_traced_and_untraced_cluster_identically(self):
        spec = WindowSpec(80, 20)
        plain = DISC(0.7, 4)
        for delta_in, delta_out in materialize_slides(
            clustered_stream(1, 240), spec
        ):
            plain.advance(delta_in, delta_out)
        traced, _, _ = traced_run(seed=1, n=240, spec=spec)
        assert traced.snapshot().labels == plain.snapshot().labels


class TestDiscTracing:
    def test_one_record_per_advance_strides_increasing(self):
        _, tracer, sink = traced_run()
        assert tracer.aggregate.strides == len(sink.records)
        assert [t.stride for t in sink.records] == list(
            range(len(sink.records))
        )
        assert len(sink.records) > 3

    def test_stream_counters_match_the_stream(self):
        spec = WindowSpec(80, 20)
        _, _, sink = traced_run(spec=spec)
        slides = materialize_slides(clustered_stream(1, 240), spec)
        assert [t.counters.num_inserted for t in sink.records] == [
            len(delta_in) for delta_in, _ in slides
        ]
        assert [t.counters.num_deleted for t in sink.records] == [
            len(delta_out) for _, delta_out in slides
        ]

    def test_per_stride_index_deltas_sum_to_total(self):
        """Figure 7 invariant: the trace alone reproduces the index totals."""
        sink = InMemorySink()
        tracer = Tracer(sink)
        disc = DISC(0.7, 4, tracer=tracer)
        before = disc.index.stats.snapshot()
        for delta_in, delta_out in materialize_slides(
            clustered_stream(2, 240), WindowSpec(80, 20)
        ):
            disc.advance(delta_in, delta_out)
        total = (disc.index.stats.snapshot() - before).as_dict()
        summed = {name: 0 for name in total}
        for trace in sink.records:
            for name, value in trace.index.as_dict().items():
                summed[name] += value
        assert summed == total
        assert summed["range_searches"] > 0

    def test_phase_timings_partition_elapsed(self):
        _, _, sink = traced_run()
        for trace in sink.records:
            assert all(v >= 0.0 for v in trace.phases.values())
            assert sum(trace.phases.values()) <= trace.elapsed_s + 1e-6

    def test_cluster_activity_is_counted(self):
        _, tracer, _ = traced_run()
        totals = tracer.aggregate.counters
        assert totals["collect_touched"] > 0
        assert totals["ex_cores"] > 0  # cores left the window
        assert totals["neo_cores"] > 0
        assert totals["retro_classes"] > 0
        assert totals["nascent_classes"] > 0
        assert totals["connectivity_checks"] > 0
        assert totals["msbfs_expansions"] > 0

    def test_theorem1_skips_counted_per_class(self):
        _, tracer, sink = traced_run()
        # Per stride, skips = sum over retro classes of (len(class) - 1), so
        # they can never exceed the stride's ex-cores minus its classes.
        for trace in sink.records:
            c = trace.counters
            assert (
                c.theorem1_skips <= max(0, c.ex_cores - c.retro_classes)
                or c.retro_classes == 0
            )
        assert tracer.aggregate.counters["theorem1_skips"] >= 0

    def test_epoch_prunes_follow_the_ablation_flag(self):
        """Figure 8 invariant: the epoch counter tracks the knob."""
        _, tracer_on, _ = traced_run(seed=3, epoch_probing=True)
        _, tracer_off, _ = traced_run(seed=3, epoch_probing=False)
        assert tracer_on.aggregate.index.epoch_prunes > 0
        assert tracer_off.aggregate.index.epoch_prunes == 0

    def test_events_counted_by_kind(self):
        _, tracer, _ = traced_run()
        events = tracer.aggregate.events
        assert events, "a 240-point blob stream must produce evolution events"
        assert all(count > 0 for count in events.values())
        assert "emerge" in events


class TestAggregate:
    def test_empty_aggregate_reports_gracefully(self):
        agg = TraceAggregate()
        assert agg.report() == "trace: no strides recorded"
        summary = agg.latency_summary()
        assert summary["mean_stride_s"] == 0.0

    def test_as_dict_and_report_after_a_run(self):
        _, tracer, _ = traced_run()
        payload = tracer.aggregate.as_dict()
        assert payload["strides"] == tracer.aggregate.strides
        assert payload["p50_stride_s"] <= payload["p95_stride_s"]
        text = tracer.report()
        assert "strides" in text
        assert "ms-bfs:" in text
        assert "index:" in text

    def test_report_merges_runtime_stats(self):
        from repro.runtime.stats import RuntimeStats

        _, tracer, _ = traced_run()
        stats = RuntimeStats()
        stats.points_seen = 240
        merged = tracer.report(stats)
        assert merged.splitlines()[0].startswith("input: 240 seen")
        assert "trace:" in merged


class TestJsonlSink:
    def test_round_trip_through_the_validator(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = InMemorySink()
        tracer = Tracer(JsonlTraceWriter(path), sink)
        disc = DISC(0.7, 4, tracer=tracer)
        for delta_in, delta_out in materialize_slides(
            clustered_stream(4, 200), WindowSpec(80, 20)
        ):
            disc.advance(delta_in, delta_out)
        tracer.close()
        assert validate_trace_file(path) == len(sink.records)
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            t.as_dict() for t in sink.records
        ]

    def test_lines_are_flushed_per_stride(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceWriter(path))
        trace = tracer.begin()
        tracer.emit(trace)
        # Readable before close — a crashed run keeps completed strides.
        assert validate_trace_file(path) == 1
        tracer.close()

    def test_parent_directory_is_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        writer = JsonlTraceWriter(path)
        writer.close()
        assert path.exists()


class TestSchemaValidation:
    def valid(self):
        return StrideTrace(0).as_dict()

    def test_missing_key_rejected(self):
        record = self.valid()
        del record["counters"]
        with pytest.raises(TraceSchemaError, match="missing keys"):
            validate_trace_record(record)

    def test_unknown_key_rejected(self):
        record = self.valid()
        record["extra"] = 1
        with pytest.raises(TraceSchemaError, match="unknown keys"):
            validate_trace_record(record)

    def test_negative_counter_rejected(self):
        record = self.valid()
        record["counters"]["ex_cores"] = -1
        with pytest.raises(TraceSchemaError, match="counters.ex_cores"):
            validate_trace_record(record)

    def test_bool_is_not_an_integer(self):
        record = self.valid()
        record["counters"]["ex_cores"] = True
        with pytest.raises(TraceSchemaError):
            validate_trace_record(record)

    def test_float_counter_rejected(self):
        record = self.valid()
        record["counters"]["neo_cores"] = 1.5
        with pytest.raises(TraceSchemaError):
            validate_trace_record(record)

    def test_unknown_phase_rejected(self):
        record = self.valid()
        record["phases"]["warmup"] = 0.1
        with pytest.raises(TraceSchemaError, match="unknown keys"):
            validate_trace_record(record)

    def test_negative_elapsed_rejected(self):
        record = self.valid()
        record["elapsed_s"] = -0.1
        with pytest.raises(TraceSchemaError, match="elapsed_s"):
            validate_trace_record(record)

    def test_event_counts_must_be_non_negative_ints(self):
        record = self.valid()
        record["events"] = {"merge": -2}
        with pytest.raises(TraceSchemaError, match="events.merge"):
            validate_trace_record(record)

    def test_file_with_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self.valid()) + "\n{not json\n")
        with pytest.raises(TraceSchemaError, match="not valid JSON"):
            validate_trace_file(path)

    def test_file_with_non_increasing_strides(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        record = json.dumps(self.valid())
        path.write_text(record + "\n" + record + "\n")
        with pytest.raises(TraceSchemaError, match="not increasing"):
            validate_trace_file(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + json.dumps(self.valid()) + "\n\n")
        assert validate_trace_file(path) == 1

    def valid_with_optional_blocks(self):
        record = self.valid()
        record["store"] = {
            "slots": 3,
            "capacity": 1024,
            "slabs": 1,
            "free": 0,
            "recycled": 0,
            "high_water": 3,
            "occupancy": 3 / 1024,
        }
        record["wal"] = dict.fromkeys(
            ("appends", "fsyncs", "bytes", "replayed", "truncated_tail",
             "tenant_restarts"),
            2,
        )
        record["journal"] = dict.fromkeys(
            ("appends", "fsyncs", "bytes", "reads", "truncated_tail",
             "compacted_segments"),
            2,
        )
        return record

    def test_optional_blocks_accepted(self):
        validate_trace_record(self.valid_with_optional_blocks())

    def test_unknown_wal_key_rejected(self):
        record = self.valid_with_optional_blocks()
        record["wal"]["rotations"] = 1
        with pytest.raises(TraceSchemaError, match="'wal' has unknown keys"):
            validate_trace_record(record)

    def test_missing_journal_key_rejected(self):
        record = self.valid_with_optional_blocks()
        del record["journal"]["fsyncs"]
        with pytest.raises(TraceSchemaError, match=r"'journal' missing.*fsyncs"):
            validate_trace_record(record)

    def test_occupancy_above_one_rejected(self):
        record = self.valid_with_optional_blocks()
        record["store"]["occupancy"] = 1.5
        with pytest.raises(TraceSchemaError, match="store.occupancy"):
            validate_trace_record(record)

    def test_negative_wal_counter_rejected(self):
        record = self.valid_with_optional_blocks()
        record["wal"]["fsyncs"] = -1
        with pytest.raises(TraceSchemaError, match="wal.fsyncs"):
            validate_trace_record(record)

    def test_bool_in_store_rejected(self):
        record = self.valid_with_optional_blocks()
        record["store"]["slots"] = True
        with pytest.raises(TraceSchemaError, match="store.slots"):
            validate_trace_record(record)


class TestPrometheusExporter:
    def test_exposition_format(self, tmp_path):
        path = tmp_path / "disc.prom"
        tracer = Tracer(PrometheusTextfileExporter(path))
        disc = DISC(0.7, 4, tracer=tracer)
        for delta_in, delta_out in materialize_slides(
            clustered_stream(5, 200), WindowSpec(80, 20)
        ):
            disc.advance(delta_in, delta_out)
        tracer.close()
        text = path.read_text()
        strides = tracer.aggregate.strides
        assert f"disc_strides_total {strides}" in text
        assert "# TYPE disc_strides_total counter" in text
        for name in PHASES:
            assert f'disc_phase_seconds_total{{phase="{name}"}}' in text
        for name in COUNTERS:
            assert f'disc_counter_total{{counter="{name}"}}' in text
        assert 'disc_index_total{stat="range_searches"}' in text
        assert 'disc_index_total{stat="epoch_prunes"}' in text
        # Every non-comment line is "name{labels} value".
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part.startswith("disc_")
        # No torn temp file left behind.
        assert not (tmp_path / "disc.prom.tmp").exists()

    def test_throttled_rewrite(self, tmp_path):
        path = tmp_path / "disc.prom"
        exporter = PrometheusTextfileExporter(path, every=3)
        tracer = Tracer(exporter)
        tracer.emit(tracer.begin())
        tracer.emit(tracer.begin())
        assert not path.exists()  # below the throttle
        tracer.emit(tracer.begin())
        assert "disc_strides_total 3" in path.read_text()
        tracer.emit(tracer.begin())
        tracer.close()  # final totals land even off-cadence
        assert "disc_strides_total 4" in path.read_text()

    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            PrometheusTextfileExporter(tmp_path / "x.prom", every=0)

    def test_render_without_records(self, tmp_path):
        exporter = PrometheusTextfileExporter(tmp_path / "x.prom")
        assert "disc_strides_total 0" in exporter.render()


class _StandIn:
    """A WAL or CDC journal as a tracer sees it: just its ``stats``."""

    def __init__(self, stats) -> None:
        self.stats = stats


def pinned_outputs(directory: Path) -> tuple[str, str, str]:
    """A fixed traced run: (JSONL lines, Prometheus text, ``report()``).

    The clock steps through k*k/1024 s on every read, so phase timings are
    exact binary fractions. The WAL and journal are stand-ins wired the
    way a served session wires them, with counters bumped before every
    stride. The build version in the Prometheus text becomes ``VERSION``.
    """
    ticks = itertools.count()
    clock = lambda: next(ticks) ** 2 / 1024  # noqa: E731
    jsonl = directory / "trace.jsonl"
    prom = directory / "metrics.prom"
    tracer = Tracer(JsonlTraceWriter(jsonl), PrometheusTextfileExporter(prom))
    wal, journal = _StandIn(WalStats()), _StandIn(JournalStats())
    TenantSession(
        "pinned",
        SessionConfig(eps=0.7, tau=4, window=80, stride=20),
        tracer=tracer,
        wal=wal,
        evjournal=journal,
    )
    disc = DISC(0.7, 4, tracer=tracer)
    slides = materialize_slides(clustered_stream(12, 200), WindowSpec(80, 20))
    with mock.patch("repro.observability.trace.perf_counter", clock):
        for number, (delta_in, delta_out) in enumerate(slides):
            wal.stats.appends += len(delta_in)
            wal.stats.fsyncs += 1
            wal.stats.bytes += 37 * len(delta_in)
            wal.stats.replayed = 5
            wal.stats.truncated_tail = number // 4
            wal.stats.tenant_restarts = number // 6
            journal.stats.appends += 1
            journal.stats.fsyncs += 1
            journal.stats.bytes += 101 + number
            journal.stats.reads += 2 * number
            journal.stats.truncated_tail = number // 5
            journal.stats.compacted_segments = number // 3
            disc.advance(delta_in, delta_out)
    tracer.close()
    metrics = prom.read_text(encoding="utf-8").replace(
        f'version="{__version__}"', 'version="VERSION"'
    )
    return jsonl.read_text(encoding="utf-8"), metrics, tracer.report() + "\n"


class TestPinnedOutputs:
    """The three operator-facing outputs of one fixed run, byte for byte."""

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        return pinned_outputs(tmp_path_factory.mktemp("pinned"))

    def test_jsonl_lines(self, outputs):
        assert outputs[0] == (GOLDEN / "strides.jsonl").read_text(encoding="utf-8")

    def test_prometheus_text(self, outputs):
        assert outputs[1] == (GOLDEN / "metrics.txt").read_text(encoding="utf-8")

    def test_report_text(self, outputs):
        assert outputs[2] == (GOLDEN / "report.txt").read_text(encoding="utf-8")

    def test_every_block_is_present_and_valid(self, outputs, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(outputs[0], encoding="utf-8")
        assert validate_trace_file(path) == 10
        last = json.loads(outputs[0].splitlines()[-1])
        assert {"store", "wal", "journal"} <= set(last)


class TestApiWiring:
    def test_cluster_stream_drives_the_tracer(self):
        from repro.api import cluster_stream

        tracer = Tracer(InMemorySink())
        results = list(
            cluster_stream(
                clustered_stream(6, 200),
                WindowSpec(80, 40),
                eps=0.7,
                tau=4,
                tracer=tracer,
            )
        )
        assert tracer.aggregate.strides == len(results)

    def test_tracer_with_custom_clusterer_rejected(self):
        from repro.api import cluster_stream
        from repro.baselines.dbscan import SlidingDBSCAN

        with pytest.raises(ConfigurationError):
            list(
                cluster_stream(
                    clustered_stream(6, 200),
                    WindowSpec(80, 40),
                    eps=0.7,
                    tau=4,
                    clusterer=SlidingDBSCAN(0.7, 4),
                    tracer=Tracer(),
                )
            )

    def test_tracer_alone_keeps_the_plain_path(self):
        """A tracer must not silently opt the run into the resilient runtime."""
        from repro.api import cluster_stream

        tracer = Tracer()
        results = list(
            cluster_stream(
                clustered_stream(7, 160),
                WindowSpec(80, 40),
                eps=0.7,
                tau=4,
                tracer=tracer,
            )
        )
        assert results and tracer.aggregate.strides == len(results)


class TestSupervisorWiring:
    def test_supervised_run_traces_every_stride(self, tmp_path):
        from repro.runtime.supervisor import Supervisor

        tracer = Tracer(InMemorySink())
        supervisor = Supervisor(
            0.7,
            4,
            WindowSpec(80, 40),
            store=str(tmp_path / "ckpt"),
            checkpoint_every=2,
            tracer=tracer,
        )
        results = list(supervisor.run(clustered_stream(8, 200)))
        assert tracer.aggregate.strides == len(results)
        assert supervisor.stats.strides == len(results)

    def test_resume_reattaches_the_tracer(self, tmp_path):
        from repro.runtime.supervisor import Supervisor

        store = str(tmp_path / "ckpt")
        stream = clustered_stream(9, 240)
        first = Supervisor(
            0.7, 4, WindowSpec(80, 40), store=store, checkpoint_every=1
        )
        run = first.run(stream)
        for _ in range(3):
            next(run)
        run.close()  # die mid-run; checkpoints exist

        tracer = Tracer(InMemorySink())
        second = Supervisor(
            0.7,
            4,
            WindowSpec(80, 40),
            store=store,
            checkpoint_every=1,
            tracer=tracer,
        )
        results = list(second.run(stream, resume=True))
        assert second.clusterer.tracer is tracer
        assert tracer.aggregate.strides == len(results)
        assert results  # the resumed run made progress


class TestBenchIntegration:
    def test_measure_method_reads_counters_from_the_trace_layer(self):
        from repro.bench.harness import measure_method

        spec = WindowSpec(80, 20)
        stream = clustered_stream(10, 400)
        disc = DISC(0.7, 4)
        result = measure_method(disc, stream, spec, n_measured=4)
        assert result["n_measured"] == 4
        assert result["p50_stride_s"] <= result["p95_stride_s"]
        assert result["counters"]["msbfs_expansions"] >= 0
        assert set(result["counters"]) == set(COUNTERS)
        assert result["index"]["range_searches"] > 0
        assert disc.tracer is None  # restored after measurement

    def test_measure_method_on_untraceable_baseline(self):
        from repro.baselines.dbscan import SlidingDBSCAN
        from repro.bench.harness import measure_method

        spec = WindowSpec(80, 20)
        stream = clustered_stream(11, 400)
        result = measure_method(SlidingDBSCAN(0.7, 4), stream, spec, n_measured=3)
        assert result["counters"] == {}
        assert result["range_searches"] > 0
