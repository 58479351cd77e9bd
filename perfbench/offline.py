"""The ``offline-dtg`` workload: DISC.advance in the benchmark process."""

from __future__ import annotations

import gc
import time

from perfbench.inputs import job_stream
from perfbench.spans import Patcher, SpanRecorder, instrument_core
from perfbench.speed import probe, rescale
from perfbench.stats import percentile
from perfbench.system import peak_rss_mb, rss_mb

#: Probe repeats around a set-up, which is long enough to afford more.
SETUP_PROBES = 10


def _setup(points, job: dict):
    """A fresh DISC fed the first window stride by stride.

    Returns ``(seconds, probe_s, disc)``; ``probe_s`` is the mean of the
    speed probes just before and just after.
    """
    from repro.core.disc import DISC

    window, stride = job["window"], job["stride"]
    before = probe(SETUP_PROBES)
    start = time.perf_counter()
    disc = DISC(job["eps"], job["tau"])
    for lo in range(0, window, stride):
        disc.advance(points[lo : lo + stride], ())
    elapsed = time.perf_counter() - start
    return elapsed, (before + probe(SETUP_PROBES)) / 2, disc


def _measure(disc, points, job: dict, first: int, seconds: float, stop: int | None = None):
    """Time back-to-back steady-state strides from stride index ``first``
    until ``seconds`` pass or stride ``stop`` (default: the stream's end).

    Returns ``(advance_s, result_s, probes, next_stride)``: per stride the
    time of ``DISC.advance``, of ``advance`` plus ``snapshot``, and the mean
    of the speed probes run just before and just after it.
    """
    window, stride = job["window"], job["stride"]
    last = len(points) // stride if stop is None else stop
    clock = time.perf_counter
    advance_s, result_s, probes = [], [], []
    k = first
    deadline = clock() + seconds
    before = probe()
    while k < last and clock() < deadline:
        lo = k * stride
        delta_in = points[lo : lo + stride]
        delta_out = points[lo - window : lo - window + stride]
        t0 = clock()
        disc.advance(delta_in, delta_out)
        t1 = clock()
        disc.snapshot()
        t2 = clock()
        after = probe()
        advance_s.append(t1 - t0)
        result_s.append(t2 - t0)
        probes.append((before + after) / 2)
        before = after
        k += 1
    return advance_s, result_s, probes, k


def _check(disc, points, job: dict, end: int) -> None:
    """The final window's clustering must equal a fresh DBSCAN of it."""
    from repro.baselines.dbscan import SlidingDBSCAN
    from repro.common.config import ClusteringParams
    from repro.metrics.compare import assert_equivalent

    window_points = points[end * job["stride"] - job["window"] : end * job["stride"]]
    dbscan = SlidingDBSCAN(job["eps"], job["tau"])
    dbscan.advance(window_points, ())
    assert_equivalent(
        disc.snapshot(),
        dbscan.snapshot(),
        {p.pid: p.coords for p in window_points},
        ClusteringParams(job["eps"], job["tau"]),
    )


def run(job: dict, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Set-ups around back-to-back strides for ``seconds``.

    Half the timed set-ups run before the measured strides and half after,
    so their median samples two moments of the run rather than one.
    A traced run measures half as long, then replays exactly the same
    strides on a second DISC at the same state with every layer wrapped:
    the difference between the two is the tracing overhead.
    """
    from repro.core.disc import DISC  # noqa: F401 - loaded before the RSS baseline

    points = job_stream(job, job["window"] + spec["stream_strides"] * job["stride"], seed)
    # The inputs are the benchmark's, not the program's: keep them out of
    # the garbage collector's scans so they do not lengthen DISC's pauses.
    gc.collect()
    gc.freeze()
    # The process already holds the interpreter, numpy and the inputs; what
    # its peak grows by from here is the clusterer's.
    baseline_mb = rss_mb("self")
    setups, setup_probes = [], []

    def set_up(count: int):
        disc = None
        for _ in range(count):
            disc = None
            gc.collect()
            elapsed, probe_s, disc = _setup(points, job)
            setups.append(elapsed)
            setup_probes.append(probe_s)
        return disc

    _setup(points, job)  # untimed warm-up
    disc = set_up(spec["setups"] // 2)
    replay = _setup(points, job)[2] if trace else None
    gc.collect()
    first = job["window"] // job["stride"]
    advance_s, result_s, probes, end = _measure(
        disc, points, job, first, seconds / 2 if trace else seconds
    )
    rss = peak_rss_mb("self") - baseline_mb
    _check(disc, points, job, end)
    layers = None
    if trace:
        layers = _traced(replay, points, job, first, end, result_s, probes)
        _check(replay, points, job, end)
    disc = replay = None
    set_up(spec["setups"] - len(setups))
    return {
        "setups_s": list(map(rescale, setups, setup_probes)),
        "latency_s": list(map(rescale, advance_s, probes)),
        "result_s": list(map(rescale, result_s, probes)),
        "unscaled": {"setups_s": setups, "latency_s": advance_s, "result_s": result_s},
        "probes_s": setup_probes + probes,
        "peak_rss_mb": rss,
        "attempted": len(advance_s) * (2 if trace else 1),
        "failed": 0,
        "layers": layers,
        "provenance": {
            "strides_measured": len(advance_s),
            "stream_points": len(points),
            "rss_baseline_mb": baseline_mb,
        },
    }


def _traced(disc, points, job, first, end, result_s, probes) -> dict:
    """Replay strides ``[first, end)`` with every layer wrapped."""
    from repro.observability.trace import Tracer

    from perfbench.layers import layer_report

    recorder, patcher = SpanRecorder(), Patcher()
    instrument_core(recorder, patcher, [type(disc.index)])
    disc.tracer = Tracer()
    try:
        started = time.perf_counter()
        traced_advance, traced_result, traced_probes, _ = _measure(
            disc, points, job, first, float("inf"), stop=end
        )
        wall = time.perf_counter() - started
    finally:
        patcher.undo()
        tracer, disc.tracer = disc.tracer, None
    agg = tracer.aggregate
    counters = {**agg.counters, **agg.index.as_dict(), "strides": agg.strides}
    overhead = (
        percentile(list(map(rescale, traced_result, traced_probes)), 50)
        / percentile(list(map(rescale, result_s, probes)), 50)
        - 1.0
    ) * 100.0
    return layer_report(
        recorder.spans,
        counters,
        wall_s=wall,
        measured_root_s=sum(traced_advance),
        extras={"overhead_pct": overhead},
    )
