"""The served workloads: a ``repro serve`` process driven over TCP.

The generator (this process) and the server each get one CPU when two are
available. Each workload opens two connections. Connection 1 sends INGEST
frames open loop; connection 2 either holds a SUBSCRIBE (``serve-ingest``)
or sends QUERY frames open loop (``serve-query``). Every reply is timed
from its scheduled send, unscaled, while a :class:`~perfbench.speed.Monitor`
keeps both CPUs from idling.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench.inputs import job_stream
from perfbench.speed import Monitor
from perfbench.stats import interpolate, open_loop_latencies, percentile, schedule
from perfbench.system import filesystem, peak_rss_mb, pin
from perfbench.wire import Connection, collect, open_loop

#: Points per INGEST frame while a tenant fills its first window.
FILL_BATCH = 100
#: Seconds between the end of set-up and the first scheduled send.
LEAD_S = 0.2
#: Queries keep coming this long after the last INGEST, so the view is
#: seen to reach the phase's last stride.
QUERY_TAIL_S = 0.5


class InvalidRun(RuntimeError):
    """The generator fell behind or the server's backlog grew."""


class Server:
    """One ``repro serve`` process, started through :mod:`perfbench.launcher`."""

    def __init__(self, root: Path, work: Path, *, data_dir, traced: bool, cpu):
        self.spans_path = work / "spans.json"
        self.log_path = work / "server.log"
        cmd = [sys.executable, "-m", "perfbench.launcher"]
        if traced:
            cmd += ["--spans-out", str(self.spans_path)]
        cmd += ["--", "serve", "--host", "127.0.0.1", "--port", "0"]
        if data_dir is not None:
            cmd += ["--data-dir", str(data_dir)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        pin(self.proc.pid, cpu)
        self.port = self._wait_ready()

    def _wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            for line in text.splitlines():
                if "listening on" in line:
                    return int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            time.sleep(0.02)
        raise RuntimeError("server did not start listening in time")

    def signal(self, sig) -> None:
        self.proc.send_signal(sig)

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def _wire(points) -> list[list]:
    return [[p.pid, list(p.coords), p.time] for p in points]


def _membership(clustering) -> dict:
    return {
        "labels": {str(pid): cid for pid, cid in clustering.labels.items()},
        "categories": {str(pid): cat.value for pid, cat in clustering.categories.items()},
    }


def expected_membership(points, job: dict) -> dict:
    """What ``api.cluster_stream`` ends with on the same stream."""
    from repro.api import cluster_stream
    from repro.common.config import WindowSpec

    last = None
    for last, _ in cluster_stream(
        points, WindowSpec(job["window"], job["stride"]), job["eps"], job["tau"]
    ):
        pass
    return _membership(last)


def _check_snapshot(conn: Connection, name: str, expected: dict) -> None:
    reply = conn.request({"op": "SNAPSHOT", "session": name})
    got = {"labels": reply["labels"], "categories": reply["categories"]}
    if got != expected:
        raise AssertionError(f"tenant {name}: SNAPSHOT differs from api.cluster_stream")


class Pushes:
    """Push frames of connection 2, per session, with their arrival times."""

    def __init__(self) -> None:
        self.records: dict[str, list[tuple[int, float]]] = {}
        self.ended: set[str] = set()
        self._cond = threading.Condition()

    def __call__(self, frame: dict, arrival: float) -> None:
        with self._cond:
            name = frame["session"]
            if frame["push"] == "event":
                self.records.setdefault(name, []).append((frame["record"]["stride"], arrival))
            else:
                self.ended.add(name)
            self._cond.notify_all()

    def wait(self, name: str, stride: int, timeout: float = 60.0) -> None:
        """Block until the push of ``stride`` (pushes come in order) has arrived."""
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self.records.get(name, [(-1, 0.0)])[-1][0] >= stride, timeout
            )
        if not ok:
            raise TimeoutError(f"no push of stride {stride} for {name}")

    def wait_end(self, name: str, timeout: float = 60.0) -> None:
        """Block until the subscription's terminal ``end`` frame has arrived."""
        with self._cond:
            if not self._cond.wait_for(lambda: name in self.ended, timeout):
                raise TimeoutError(f"subscription of {name} never ended")


class Run:
    """One served workload run against one server."""

    def __init__(self, root: Path, work: Path, job: dict, spec: dict, seed: int, trace: bool, cpus):
        self.job, self.spec, self.seed, self.cpus = job, spec, seed, cpus
        self.first_full = job["window"] // job["stride"] - 1  # stride index
        self.durable = bool(spec["session"].get("wal") or spec["session"].get("journal"))
        self.data_dir = work / "data" if self.durable else None
        self.config = {
            "eps": job["eps"],
            "tau": job["tau"],
            "window": job["window"],
            "stride": job["stride"],
            **spec["session"],
        }
        self.pushes = Pushes()
        self.conns: list[Connection] = []
        self.server = Server(root, work, data_dir=self.data_dir, traced=trace, cpu=cpus[1])
        try:
            self.conn1 = self._connect(None)
            self.conn2 = self._connect(self.pushes)
        except BaseException:
            self.close()
            raise

    def _connect(self, on_push) -> Connection:
        conn = Connection("127.0.0.1", self.server.port, on_push=on_push)
        self.conns.append(conn)
        return conn

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.server.stop()

    # ------------------------------------------------------------- set-up

    def setup(self, name: str, fill, *, drain: bool = True) -> float:
        """OPEN, INGEST the first window, wait until it is clustered.

        A durable tenant is done when the push of the first full stride
        arrives; an ephemeral one when DRAIN returns (``drain=False`` polls
        STATS instead, for the tenant that goes on to be measured).
        """
        first_full = self.first_full
        start = time.perf_counter()
        self.conn1.request({"op": "OPEN", "session": name, "config": self.config, "resume": False})
        if self.durable:
            self.conn2.request({"op": "SUBSCRIBE", "session": name, "cursor": 0})
        acks = [
            self.conn1.send({"op": "INGEST", "session": name, "points": _wire(fill[i : i + FILL_BATCH])})
            for i in range(0, len(fill), FILL_BATCH)
        ]
        for future in acks:
            reply, _ = future.result(60)
            if not reply.get("ok") or reply["accepted"] != FILL_BATCH:
                raise RuntimeError(f"fill INGEST failed: {reply}")
        if self.durable:
            self.pushes.wait(name, first_full)
        elif not drain:
            self.wait_filled(name)
        else:
            reply = self.conn1.request({"op": "DRAIN", "session": name})
            if reply.get("stride") != first_full:
                raise RuntimeError(f"fill ended at stride {reply.get('stride')}")
        return time.perf_counter() - start

    def wait_filled(self, name: str) -> None:
        """Poll STATS until the first full window is published."""
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            stats = self.conn1.request({"op": "STATS", "session": name})
            if stats["stride"] >= self.first_full and stats["queue_depth"] == 0:
                return
            time.sleep(0.01)
        raise TimeoutError(f"{name} never filled its first window")

    def finish(self, name: str, expected: dict) -> None:
        """Untimed: DRAIN the measured tenant with its tail and check it.

        Its SNAPSHOT must equal ``api.cluster_stream`` over the same stream
        and, when it journals, the subscriber must have received every
        stride's push exactly once and in order.
        """
        drained = self.conn1.request({"op": "DRAIN", "session": name, "flush_tail": True})
        if self.durable:
            self.pushes.wait_end(name)
            strides = [s for s, _ in self.pushes.records.get(name, ())]
            if strides != list(range(drained["stride"] + 1)):
                raise AssertionError(f"{name}: pushes are not every stride exactly once in order")
        _check_snapshot(self.conn1, name, expected)
        self.conn1.request({"op": "CLOSE", "session": name})

    def retire(self, name: str, expected: dict) -> None:
        """Untimed: check a set-up tenant against the offline result, close it."""
        if self.durable:
            self.conn1.request({"op": "DRAIN", "session": name})
            self.pushes.wait_end(name)
        _check_snapshot(self.conn1, name, expected)
        self.conn1.request({"op": "CLOSE", "session": name})

    # ------------------------------------------------------------ measured

    def phase(self, name: str, points, first: int, seconds: float) -> dict:
        """One open-loop phase from stream index ``first``; raw samples."""
        spec, stride = self.spec, self.job["stride"]
        batch, rate = spec["batch"], spec["rate_pts_s"]
        interval = batch / rate
        n_batches = int(seconds * rate / batch)
        ingest = [
            {"op": "INGEST", "session": name, "points": _wire(points[first + i * batch : first + (i + 1) * batch])}
            for i in range(n_batches)
        ]
        queries = query_frames(spec, self.seed, name, points, first, seconds)
        # Collector pauses in the generator would show up as lateness.
        gc.collect()
        gc.freeze()
        start = time.perf_counter() + LEAD_S
        ingest_due = schedule(start, len(ingest), interval)
        query_due = schedule(start, len(queries), 1.0 / spec["query_rate_s"]) if queries else []
        loops: dict[str, tuple] = {}

        def drive(key, conn, frames, due):
            loops[key] = open_loop(conn, frames, due)

        threads = [
            threading.Thread(target=drive, args=args)
            for args in (("ingest", self.conn1, ingest, ingest_due), ("query", self.conn2, queries, query_due))
            if args[2]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats_future = self.conn1.send({"op": "STATS", "session": name})
        ingest_sent, ingest_futures = loops["ingest"]
        acks, ack_arrivals = collect(ingest_futures, timeout=60)
        replies, reply_arrivals = collect(loops["query"][1], timeout=60) if queries else ([], [])
        stats, _ = stats_future.result(60)
        active = time.perf_counter() - start

        # Strides closed by this phase: their last point's batch was sent here.
        end = first + n_batches * batch
        strides = list(range(first // stride, end // stride))
        stride_due = {k: ingest_due[((k + 1) * stride - 1 - first) // batch] for k in strides}
        if self.durable:
            if strides:
                self.pushes.wait(name, strides[-1])
            seen = {s: t for s, t in self.pushes.records.get(name, ()) if s in stride_due}
        else:
            seen = _first_seen(replies, reply_arrivals)
        results = [seen[k] - stride_due[k] for k in strides if k in seen]
        failed = sum(1 for k in strides if k not in seen)
        failed += sum(1 for reply in acks if reply is None or not reply.get("ok"))
        failed += sum(
            len(frame["points"]) - reply["accepted"]
            for frame, reply in zip(ingest, acks)
            if reply is not None and reply.get("ok")
        )
        failed += sum(1 for reply, frame in zip(replies, queries) if not _query_ok(reply, frame))
        lateness = [s - d for s, d in zip(ingest_sent, ingest_due)]
        if queries:
            lateness += [s - d for s, d in zip(loops["query"][0], query_due)]
        ok_acks = [t for t in ack_arrivals if t is not None]
        return {
            "end": end,
            "ack_s": open_loop_latencies(
                [d for d, t in zip(ingest_due, ack_arrivals) if t is not None], ok_acks
            ),
            "query_s": open_loop_latencies(
                [d for d, t in zip(query_due, reply_arrivals) if t is not None],
                [t for t in reply_arrivals if t is not None],
            ),
            "result_s": results,
            "attempted": len(ingest) + len(queries) + len(strides),
            "failed": failed,
            "lateness_s": lateness,
            "queue_depth_end": stats.get("queue_depth", 0),
            "queue_depth_max": max((r["depth"] for r in acks if r and r.get("ok")), default=0),
            "acks": len(ok_acks),
            "stats": stats,
            "active_s": active,
        }


def query_frames(spec: dict, seed: int, name: str, points, first: int, seconds: float) -> list[dict]:
    """QUERY frames of one phase: points sent 100 to 1000 points earlier.

    Query ``j`` is due ``j / query_rate_s`` after the phase starts; its
    target is drawn from the seed among the points whose INGEST was due by
    then. Every third query is a ``pid`` membership and the others a
    ``coords`` classify: a classify costs several times a membership, and
    with half of each the median would fall in the gap between the two.
    """
    rate = spec["query_rate_s"]
    if not rate:
        return []
    batch = spec["batch"]
    interval = batch / spec["rate_pts_s"]
    n_batches = int(seconds * spec["rate_pts_s"] / batch)
    rng = random.Random(seed * 7919 + first)
    frames = []
    for j in range(int((seconds + QUERY_TAIL_S) * rate)):
        sent = first + min(n_batches, int(j / rate / interval) + 1) * batch
        point = points[rng.randrange(sent - 1000, sent - 100)]
        if j % 3 == 0:
            frames.append({"op": "QUERY", "session": name, "pid": point.pid})
        else:
            frames.append({"op": "QUERY", "session": name, "coords": list(point.coords)})
    return frames


def _query_ok(reply, frame) -> bool:
    if reply is None or not reply.get("ok"):
        return False
    return "pid" not in frame or reply.get("tracked") is True


def _first_seen(replies, arrivals) -> dict[int, float]:
    """Stride -> arrival of the first QUERY reply whose view had reached it."""
    seen: dict[int, float] = {}
    newest = None
    answered = [(t, r) for t, r in zip(arrivals, replies) if t is not None and r and r.get("ok")]
    for arrival, reply in sorted(answered, key=lambda pair: pair[0]):
        stride = reply["stride"]
        if newest is None:
            newest = stride
            continue
        for k in range(newest + 1, stride + 1):
            seen[k] = arrival
        newest = max(newest, stride)
    return seen


def _checkpoint_bytes(data_dir, name: str) -> int:
    """Size of the tenant's newest checkpoint file (0 without one)."""
    if data_dir is None:
        return 0
    files = sorted((data_dir / name / "ckpt").glob("checkpoint-*.json"))
    return files[-1].stat().st_size if files else 0


def _counter_delta(after: dict, before: dict, block: str, field: str) -> int:
    return after.get(block, {}).get(field, 0) - before.get(block, {}).get(field, 0)


def run(root: Path, work: Path, job: dict, spec: dict, seed: int, seconds: float, trace: bool, cpus) -> dict:
    """Set-ups around the measured phase on tenant ``bench``.

    Half the timed set-ups run before the measured phase and half after,
    so their median samples two moments of the run rather than one.
    A traced run measures half as long, then replays the same stream on a
    second tenant with the wrappers installed: the two phases see identical
    inputs, so their difference is the tracing overhead.
    """
    fill_n = job["window"]
    length = seconds / 2 if trace else seconds
    points = job_stream(job, fill_n + int(length * spec["rate_pts_s"]) + spec["batch"], seed)
    fill = points[:fill_n]
    expected_fill = expected_membership(fill, job)
    with Monitor(cpus) as monitor:
        session = Run(root, work, job, spec, seed, trace, cpus)
        try:
            setups, measured, traced, rss = _phases(session, points, expected_fill, length, trace)
        finally:
            session.close()
        probes = monitor.stop()
    timed = "query_s" if spec["query_rate_s"] else "ack_s"
    both = [measured] + ([traced] if traced else [])
    return {
        "setups_s": setups,
        "latency_s": measured[timed],
        "result_s": measured["result_s"],
        "unscaled": {
            "setups_s": setups,
            "latency_s": measured[timed],
            "result_s": measured["result_s"],
        },
        "probes_s": probes,
        "peak_rss_mb": rss,
        "attempted": sum(phase["attempted"] for phase in both),
        "failed": sum(phase["failed"] for phase in both),
        "layers": _served_layers(session, measured, traced) if trace else None,
        "provenance": {
            "lateness_p99_ms": interpolate(sorted(measured["lateness_s"]), 99) * 1e3,
            "queue_depth_end": measured["queue_depth_end"],
            "queue_depth_max": measured["queue_depth_max"],
            "data_dir_filesystem": filesystem(work) if session.durable else None,
            "ack_p50_ms": percentile(measured["ack_s"], 50) * 1e3,
            "ack_samples": len(measured["ack_s"]),
            "query_samples": len(measured["query_s"]),
        },
    }


def _phases(session: Run, points, expected_fill: dict, length: float, trace: bool):
    """The set-ups and the measured (and traced) phases of one run."""
    job, spec = session.job, session.spec
    fill_n = job["window"]
    fill = points[:fill_n]
    traced = None
    setups: list[float] = []

    def set_up(count: int) -> None:
        for _ in range(count):
            name = f"setup-{len(setups)}"
            setups.append(session.setup(name, fill))
            session.retire(name, expected_fill)

    session.setup("warmup", fill)
    session.retire("warmup", expected_fill)
    set_up(spec["setups"] // 2)
    session.setup("bench", fill, drain=False)
    measured = session.phase("bench", points, fill_n, length)
    _validate(measured, spec)
    rss = session.server.rss_mb()
    expected = expected_membership(points[: measured["end"]], job)
    session.finish("bench", expected)
    if trace:
        session.setup("traced", fill, drain=False)
        session.server.signal(signal.SIGUSR1)
        time.sleep(0.1)
        before = session.conn1.request({"op": "STATS", "session": "traced"})
        traced = session.phase("traced", points, fill_n, length)
        session.server.signal(signal.SIGUSR2)
        _validate(traced, spec)
        traced["stats_before"] = before
        traced["checkpoint_bytes"] = _checkpoint_bytes(session.data_dir, "traced")
        session.finish("traced", expected)
    set_up(spec["setups"] - len(setups))
    return setups, measured, traced, rss


def _validate(measured: dict, spec: dict) -> None:
    """Raise :class:`InvalidRun` if the generator fell behind its schedule
    or the server's queue held too many points at any ack or at the end."""
    limits = spec["validity"]
    late = interpolate(sorted(measured["lateness_s"]), 99) * 1e3
    if late > limits["max_lateness_p99_ms"]:
        raise InvalidRun(f"generator lateness p99 {late:.2f} ms over the limit")
    depth = max(measured["queue_depth_max"], measured["queue_depth_end"])
    if depth > limits["max_queue_depth_points"]:
        raise InvalidRun(f"server queue depth reached {depth} points: backlog grew")


def _served_layers(session: Run, untraced: dict, traced: dict) -> dict:
    from perfbench.layers import layer_report

    dump = json.loads(session.server.spans_path.read_text())
    before, after = traced["stats_before"], traced["stats"]
    overhead = (percentile(traced["result_s"], 50) / percentile(untraced["result_s"], 50) - 1.0) * 100.0
    return layer_report(
        dump["spans"],
        dump["counters"],
        wall_s=traced["active_s"],
        lag_ms=dump["lag_ms"],
        extras={
            "wal_fsyncs": _counter_delta(after, before, "wal", "fsyncs"),
            "wal_bytes": _counter_delta(after, before, "wal", "bytes"),
            "wal_appends": _counter_delta(after, before, "wal", "appends"),
            "journal_fsyncs": _counter_delta(after, before, "journal", "fsyncs"),
            "journal_bytes": _counter_delta(after, before, "journal", "bytes"),
            "checkpoint_bytes": traced["checkpoint_bytes"],
            "acks": traced["acks"],
            "queue_depth_max": traced["queue_depth_max"],
            "overhead_pct": overhead,
        },
    )
