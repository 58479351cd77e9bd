"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import inputs, served  # noqa: E402
from perfbench.layers import layer_report  # noqa: E402
from perfbench.spans import Patcher, SpanRecorder, self_times  # noqa: E402
from perfbench.stats import TooFewSamples, open_loop_latencies, percentile, schedule  # noqa: E402
from perfbench.wire import Connection, collect, open_loop  # noqa: E402

JOB = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["job"]


# ------------------------------------------------------------ open-loop timing


def _stalling_server(stall_at: int, stall_s: float):
    """A JSON-lines server that answers in order and stalls one reply."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as lines:
            for n, line in enumerate(lines):
                if n == stall_at:
                    time.sleep(stall_s)
                reply = {"ok": True, "id": json.loads(line)["id"]}
                conn.sendall(json.dumps(reply).encode() + b"\n")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def test_stalled_reply_delays_every_later_sample_and_drops_none():
    stall_at, stall_s, interval, count = 5, 0.2, 0.01, 30
    listener, thread = _stalling_server(stall_at, stall_s)
    conn = Connection("127.0.0.1", listener.getsockname()[1])
    try:
        due = schedule(time.perf_counter() + 0.05, count, interval)
        sent, futures = open_loop(conn, [{"op": "PING"}] * count, due)
        replies, arrivals = collect(futures, timeout=10)
    finally:
        conn.close()
        listener.close()
        thread.join(timeout=5)
    latency = open_loop_latencies(due, arrivals)
    assert len(latency) == count and all(r["ok"] for r in replies)
    assert max(s - d for s, d in zip(sent, due)) < interval  # the sender never waited
    released = due[stall_at] + stall_s
    queued = [i for i in range(stall_at, count) if due[i] < released]
    assert len(queued) > 10
    for i in queued:
        # Each request queued behind the stall waits for it, timed from
        # its own schedule, not from whenever it finally went out.
        assert latency[i] >= released - due[i] - 0.005
    assert max(latency[:stall_at]) < stall_s / 2


def test_missing_reply_is_an_error_not_a_dropped_sample():
    with pytest.raises(ValueError, match="missing"):
        open_loop_latencies([0.0, 1.0], [0.5, None])


# ------------------------------------------------------------ percentile rule


@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, enough):
    assert percentile(list(range(enough)), q) == pytest.approx((enough - 1) * q / 100)
    with pytest.raises(TooFewSamples):
        percentile(list(range(enough - 1)), q)


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert percentile(values, 50) == 3.0


# ------------------------------------------------------------ span arithmetic


class FakeClock:
    """Each call advances time by one unit."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_nested_children():
    recorder = SpanRecorder(clock=FakeClock())
    leaf = recorder.wrap("c:leaf", lambda: None)
    middle = recorder.wrap("b:middle", lambda: (leaf(), leaf()))
    outer = recorder.wrap("a:outer", lambda: (middle(), leaf()), unit=lambda args: 7)
    outer()
    names = [row[0] for row in recorder.spans]
    assert names == ["a:outer", "b:middle", "c:leaf", "c:leaf", "c:leaf"]
    # One clock tick per read: outer 1..10, middle 2..7, leaves 3..4,
    # 5..6 and 8..9.
    durations = [row[2] - row[1] for row in recorder.spans]
    selfs = self_times(recorder.spans)
    assert durations[2:] == [1.0, 1.0, 1.0]
    assert selfs[1] == durations[1] - 2.0
    assert selfs[0] == durations[0] - durations[1] - durations[4]
    assert sum(selfs) == durations[0]
    assert {row[4] for row in recorder.spans} == {7}  # children share the unit
    assert [row[3] for row in recorder.spans] == [None, 0, 1, 1, 0]


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        ["a:p", 10.0, 20.0, None, None, None, "a"],
        ["b:x", 8.0, 13.0, 0, None, None, "b"],  # starts before the parent
        ["b:y", 12.0, 15.0, 0, None, None, "b"],  # overlaps x
        ["b:z", 18.0, 25.0, 0, None, None, "b"],  # ends after the parent
        ["b:open", 16.0, None, 0, None, None, "b"],  # never closed
    ]
    assert self_times(spans)[0] == 10.0 - (15.0 - 10.0) - (20.0 - 18.0)


def test_reentering_a_layer_records_no_second_span():
    recorder = SpanRecorder(clock=FakeClock())
    inner = recorder.wrap("index:inner", lambda: None)
    outer = recorder.wrap("index:outer", lambda: inner())
    outer()
    assert [row[0] for row in recorder.spans] == ["index:outer"]


def test_root_spans_ignore_the_open_span():
    recorder = SpanRecorder(clock=FakeClock())
    root = recorder.wrap("r:root", lambda: None, root=True)
    recorder.wrap("a:outer", lambda: root())()
    assert recorder.spans[1][3] is None


def test_coverage_drops_when_a_child_call_is_not_wrapped():
    def advance(child_end):
        return [
            ["core.disc:advance", 0.0, 10.0, None, 0, None, "core.disc"],
            ["core.collect:collect", 0.5, 4.0, 0, 0, None, "core.collect"],
            ["index:ball", 1.0, 2.0, 1, 0, None, "index"],
            ["core.cluster.merge:process_neo_cores", 4.0, child_end, 0, 0, None, "core.cluster.merge"],
        ]

    wrapped = layer_report(advance(9.5), {}, wall_s=10.0)
    # The merge step's tail (9.0..9.5 of it) runs in a call nothing wraps.
    unwrapped = layer_report(advance(9.0), {}, wall_s=10.0)
    assert wrapped["trace.coverage_pct"] == pytest.approx(90.0)
    assert unwrapped["trace.coverage_pct"] == pytest.approx(85.0)
    assert unwrapped["trace.unattributed_ms_per_stride"] == pytest.approx(1.5e3)
    # The root's own time is no layer's: not maintenance, not coverage.
    assert unwrapped["core.state.maintenance_ms_per_stride"] == 0.0


def test_patcher_restores_class_and_module_attributes():
    class Thing:
        def method(self):
            return "original"

    patcher = Patcher()
    patcher.patch(Thing, "method", lambda fn: lambda self: "patched " + fn(self))
    assert Thing().method() == "patched original"
    patcher.undo()
    assert Thing().method() == "original"


# ------------------------------------------------------------ run validity


def _phase(depths, depth_end=0, late_s=0.001):
    return {
        "lateness_s": [late_s] * 200,
        "queue_depth_max": max(depths),
        "queue_depth_end": depth_end,
    }


def test_backlog_in_the_middle_of_the_phase_makes_the_run_invalid():
    spec = {"validity": {"max_lateness_p99_ms": 20.0, "max_queue_depth_points": 100}}
    served._validate(_phase([0, 3, 2, 0]), spec)
    # The queue drained by the end, but it held 400 points at one ack.
    with pytest.raises(served.InvalidRun, match="400"):
        served._validate(_phase([0, 400, 2, 0]), spec)
    with pytest.raises(served.InvalidRun, match="lateness"):
        served._validate(_phase([0], late_s=0.05), spec)


# ------------------------------------------------------------ seeded inputs


def test_same_seed_gives_byte_identical_inputs():
    def render(seed: int) -> bytes:
        points = inputs.job_stream(JOB, 4000, seed)
        spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
        frames = served.query_frames(
            spec["workloads"]["serve-query"], seed, "bench", points, 2000, 5.0
        )
        return json.dumps([list(map(list, points)), frames]).encode()

    assert render(3) == render(3)
    assert render(3) != render(4)


def test_seeds_change_the_stream_but_not_the_work_per_stride():
    stride = JOB["stride"]
    a = inputs.job_stream(JOB, 400, 1)
    b = inputs.job_stream(JOB, 400, 9)  # the same symmetry, another shuffle
    assert [p.coords for p in a] != [p.coords for p in b]
    for lo in range(0, 400, stride):
        assert sorted(p.coords for p in a[lo : lo + stride]) == sorted(
            p.coords for p in b[lo : lo + stride]
        )


# ------------------------------------------------------------ speed rescaling


def test_monitor_probes_until_stopped_and_leaves_no_process():
    from perfbench.speed import Monitor

    with Monitor([None]) as monitor:
        procs = list(monitor._procs)
        time.sleep(0.3)
        (median,) = monitor.stop()
    assert 0 < median < 0.1
    assert all(proc.returncode is not None for proc in procs)
