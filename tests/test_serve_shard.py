"""Sharded serving: placement, layout migration, protocol equivalence,
placement stability across router restarts, and worker kill -9 drills.

The contract of ``repro serve --shards N`` is that clients cannot tell it
from ``--shards 0``: same frames, byte-identical answers, same durability
guarantees — plus process-level fault isolation (one worker dying leaves
co-resident shards serving) and self-healing worker supervision mirroring
the per-tenant circuit breaker.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import time
from collections import Counter

import pytest

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.serve import SessionConfig, protocol
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.router import run_router
from repro.serve.server import run_server
from repro.serve.service import ClusterService
from repro.serve.shard import ShardedClusterService, migrate_layout, place

from .conftest import clustered_stream

EPS, TAU = 0.8, 4
WINDOW, STRIDE = 40, 10


def make_config(**overrides) -> SessionConfig:
    base = dict(eps=EPS, tau=TAU, window=WINDOW, stride=STRIDE, checkpoint_every=2)
    base.update(overrides)
    return SessionConfig(**base)


def offline_final_labels(points, config: SessionConfig) -> dict:
    spec = WindowSpec(window=config.window, stride=config.stride)
    last = None
    for snapshot, _ in cluster_stream(points, spec, eps=config.eps, tau=config.tau):
        last = snapshot
    return {str(pid): cid for pid, cid in last.labels.items()}


def pick_tenants(shards: int, per_shard: int = 1) -> list[str]:
    """Tenant names guaranteed to cover every shard of the deployment."""
    chosen: list[str] = []
    filled = {k: 0 for k in range(shards)}
    i = 0
    while any(count < per_shard for count in filled.values()):
        name = f"tenant-{i}"
        i += 1
        home = place(name, shards)
        if filled[home] < per_shard:
            filled[home] += 1
            chosen.append(name)
    return chosen


# ------------------------------------------------------------------ placement


class TestPlacement:
    def test_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 8):
            for i in range(50):
                name = f"tenant-{i}"
                home = place(name, shards)
                assert 0 <= home < shards
                assert home == place(name, shards)

    def test_single_shard_takes_everything(self):
        assert all(place(f"t{i}", 1) == 0 for i in range(25))

    def test_spread_is_roughly_even(self):
        counts = Counter(place(f"tenant-{i}", 4) for i in range(2000))
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 2000 / 4 * 0.5

    def test_growing_the_ring_moves_a_minority(self):
        names = [f"tenant-{i}" for i in range(1000)]
        moved = sum(place(n, 4) != place(n, 5) for n in names)
        # Consistent hashing: ~1/5 of tenants move when a 5th shard joins;
        # naive modulo placement would reshuffle ~4/5 of them.
        assert moved < 1000 * 0.45


class TestMigrateLayout:
    @staticmethod
    def fake_tenant(directory):
        (directory / "ckpt").mkdir(parents=True)
        (directory / "session.json").write_text("{}")

    def test_legacy_tenants_move_into_their_shard(self, tmp_path):
        for name in ("alpha", "beta", "gamma"):
            self.fake_tenant(tmp_path / name)
        moved = migrate_layout(tmp_path, 2)
        assert sorted(t for t, _ in moved) == ["alpha", "beta", "gamma"]
        for name, shard in moved:
            assert shard == place(name, 2)
            new_home = tmp_path / f"shard-{shard}" / name
            assert (new_home / "session.json").exists()
            assert (new_home / "ckpt").is_dir()
            assert not (tmp_path / name).exists()

    def test_reshard_rehomes_mismatched_tenants(self, tmp_path):
        names = ("alpha", "beta", "gamma", "delta")
        for name in names:  # a 1-shard layout: everything under shard-0
            self.fake_tenant(tmp_path / "shard-0" / name)
        moved = migrate_layout(tmp_path, 4)
        assert sorted(t for t, _ in moved) == sorted(
            n for n in names if place(n, 4) != 0
        )
        for name in names:
            home = tmp_path / f"shard-{place(name, 4)}" / name
            assert (home / "session.json").exists()

    def test_migration_is_idempotent(self, tmp_path):
        for name in ("alpha", "beta"):
            self.fake_tenant(tmp_path / name)
        assert migrate_layout(tmp_path, 2)
        assert migrate_layout(tmp_path, 2) == []


class TestShardMetricLabels:
    def test_extra_labels_merge_into_every_series(self, tmp_path):
        from repro.observability.sinks import PrometheusTextfileExporter

        labeled = PrometheusTextfileExporter(
            tmp_path / "l.prom", labels={"shard": "3"}
        ).render()
        assert 'disc_strides_total{shard="3"} 0' in labeled
        assert 'shard="3"' in labeled.splitlines()[2]  # build_info too
        # No labels => byte-identical to the historical output.
        plain = PrometheusTextfileExporter(tmp_path / "p.prom").render()
        assert "disc_strides_total 0" in plain
        assert "shard=" not in plain

    def test_service_metric_labels_reach_the_tenant_textfile(self, tmp_path):
        points = clustered_stream(90, 40)

        async def run():
            service = ClusterService(
                metrics_dir=tmp_path, metric_labels={"shard": "2"}
            )
            session = service.open("m", make_config())
            await session.offer(points)
            await service.drain("m")
            await service.shutdown()

        asyncio.run(run())
        text = (tmp_path / "m.prom").read_text()
        assert 'disc_strides_total{shard="2"}' in text
        assert ',shard="2"}' in text  # merged behind per-series labels too


# ------------------------------------------------- integration test harness


async def _raw_connect(port: int):
    return await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_FRAME_BYTES + 1024
    )


async def _raw_request(conn, frame: dict) -> bytes:
    reader, writer = conn
    writer.write(protocol.encode_frame(frame))
    await writer.drain()
    return await reader.readline()


async def _raw_close(conn) -> None:
    conn[1].close()
    try:
        await conn[1].wait_closed()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass


async def _wait_stride(conn, tenant: str, stride: int, timeout: float = 20.0):
    """Poll SNAPSHOT until the tenant's published view reaches ``stride``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = await _raw_request(
            conn, {"op": "SNAPSHOT", "id": "poll", "session": tenant}
        )
        if protocol.decode_frame(line).get("stride") == stride:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"{tenant} never reached stride {stride}")


# --------------------------------------------------------------- equivalence


@pytest.mark.chaos
class _LiveProc:
    """Stands in for a running worker process."""

    pid = os.getpid()
    returncode = None

    def poll(self):
        return None


async def _with_stub_worker(degraded: str, body):
    """Run ``body(service, worker)`` against a one-shard service whose
    worker is a unix-socket stub that answers every frame with a STATS
    reply, with the worker marked ``degraded``."""

    async def answer(reader, writer):
        while await reader.readline():
            writer.write(protocol.encode_frame({"ok": True, "sessions": []}))
            await writer.drain()
        writer.close()

    service = ShardedClusterService(1)
    worker = service.workers[0]
    worker.proc = _LiveProc()
    worker.degraded = degraded
    server = await asyncio.start_unix_server(answer, path=worker.socket_path)
    try:
        return await body(service, worker)
    finally:
        server.close()
        await server.wait_closed()
        shutil.rmtree(service.socket_dir, ignore_errors=True)


class TestRestartMark:
    """A respawned worker that serves is no longer ``restarting``."""

    def test_router_connection_clears_restarting(self):
        async def body(service, worker):
            _, writer = await service.connect(worker)
            writer.close()
            return worker.degraded

        assert asyncio.run(_with_stub_worker("restarting", body)) is None

    def test_stats_connection_clears_restarting(self):
        async def body(service, worker):
            return await service.stats()

        stats = asyncio.run(_with_stub_worker("restarting", body))
        assert stats["degraded"] == {}
        assert stats["shard_detail"][0]["degraded"] is None

    def test_circuit_open_is_never_cleared(self):
        async def body(service, worker):
            _, writer = await service.connect(worker)
            writer.close()
            return (await service.stats())["degraded"]

        degraded = asyncio.run(_with_stub_worker("circuit-open", body))
        assert degraded == {"shard-0": "circuit-open"}


class TestProtocolEquivalence:
    def test_sharded_answers_byte_identical_to_single_process(self, tmp_path):
        """Per stride, per tenant: the raw QUERY and SNAPSHOT reply lines of
        a 2-shard deployment equal the single-process server's, byte for
        byte — the router is invisible at the protocol level."""
        shards = 2
        tenants = pick_tenants(shards)
        n_points = 60
        streams = {
            t: clustered_stream(60 + i, n_points) for i, t in enumerate(tenants)
        }
        config = make_config()

        async def run():
            reference = ClusterService(data_dir=tmp_path / "ref")
            ref_ready, ref_stop = asyncio.Event(), asyncio.Event()
            ref_task = asyncio.create_task(
                run_server(
                    reference, "127.0.0.1", 0, ready=ref_ready, stop=ref_stop
                )
            )
            sharded = ShardedClusterService(shards, data_dir=tmp_path / "data")
            ready, stop = asyncio.Event(), asyncio.Event()
            router_task = asyncio.create_task(
                run_router(sharded, "127.0.0.1", 0, ready=ready, stop=stop)
            )
            await asyncio.gather(ref_ready.wait(), ready.wait())
            try:
                ref = await _raw_connect(reference.port)
                shd = await _raw_connect(sharded.port)
                for t in tenants:
                    frame = {
                        "op": "OPEN",
                        "id": f"open-{t}",
                        "session": t,
                        "config": config.as_dict(),
                        "resume": False,
                    }
                    assert await _raw_request(ref, frame) == await _raw_request(
                        shd, frame
                    )
                for k in range(n_points // STRIDE):
                    for t in tenants:
                        chunk = streams[t][k * STRIDE : (k + 1) * STRIDE]
                        ingest = {
                            "op": "INGEST",
                            "id": f"i-{t}-{k}",
                            "session": t,
                            "points": protocol.encode_points(chunk),
                        }
                        # INGEST replies carry a timing-dependent queue
                        # depth; equivalence is asserted on the reads below.
                        await _raw_request(ref, ingest)
                        await _raw_request(shd, ingest)
                    for t in tenants:
                        await _wait_stride(ref, t, k)
                        await _wait_stride(shd, t, k)
                        chunk = streams[t][k * STRIDE : (k + 1) * STRIDE]
                        for frame in (
                            {"op": "SNAPSHOT", "id": f"s-{t}-{k}", "session": t},
                            {
                                "op": "QUERY",
                                "id": f"qp-{t}-{k}",
                                "session": t,
                                "pid": chunk[0].pid,
                            },
                            {
                                "op": "QUERY",
                                "id": f"qc-{t}-{k}",
                                "session": t,
                                "coords": list(chunk[-1].coords),
                            },
                        ):
                            a = await _raw_request(ref, frame)
                            b = await _raw_request(shd, frame)
                            assert a == b, (
                                f"{t} stride {k}: {frame['op']} diverged\n"
                                f"single: {a!r}\nsharded: {b!r}"
                            )
                await _raw_close(ref)
                await _raw_close(shd)
            finally:
                ref_stop.set()
                stop.set()
                await asyncio.gather(ref_task, router_task)

        asyncio.run(run())


class TestPlacementStability:
    def test_placement_and_data_dirs_survive_router_restart(self, tmp_path):
        shards = 2
        tenants = pick_tenants(shards)
        config = make_config()
        points = clustered_stream(71, 40)

        async def life(*, resume, feed):
            sharded = ShardedClusterService(shards, data_dir=tmp_path / "data")
            ready, stop = asyncio.Event(), asyncio.Event()
            task = asyncio.create_task(
                run_router(
                    sharded, "127.0.0.1", 0, resume=resume, ready=ready, stop=stop
                )
            )
            await ready.wait()
            try:
                client = await ServeClient.connect("127.0.0.1", sharded.port)
                if feed:
                    for t in tenants:
                        await client.open_session(t, config)
                        await client.ingest(t, points)
                        await client.drain(t)  # checkpoint for the resume
                stats = await client.stats()
                await client.close()
                return stats
            finally:
                stop.set()
                await task

        def placement(stats) -> dict:
            return {
                t: entry["shard"]
                for entry in stats["shard_detail"]
                for t in entry["tenants"]
            }

        first = asyncio.run(life(resume=False, feed=True))
        second = asyncio.run(life(resume=True, feed=False))
        expected = {t: place(t, shards) for t in tenants}
        assert placement(first) == expected
        assert placement(second) == expected  # resumed onto the same shards
        assert sorted(second["sessions"]) == sorted(tenants)
        assert second["shards"] == shards
        for t in tenants:
            home = tmp_path / "data" / f"shard-{place(t, shards)}" / t
            assert (home / "session.json").exists()


# ---------------------------------------------------------------- kill drill


@pytest.mark.chaos
class TestWorkerKillDrill:
    def test_kill9_isolates_the_shard_and_loses_no_acks(self, tmp_path):
        """``kill -9`` one worker: co-resident shards answer throughout,
        the dead shard reports ``shard-unavailable`` until its supervised
        restart, and the resumed tenants cover every acknowledged point
        (``wal_fsync=always``) with labels matching the offline run."""
        shards = 2
        tenants = pick_tenants(shards)
        config = make_config(wal=True, wal_fsync="always")
        n_points = 60
        cut = 30
        streams = {
            t: clustered_stream(80 + i, n_points) for i, t in enumerate(tenants)
        }

        async def run():
            sharded = ShardedClusterService(
                shards,
                data_dir=tmp_path / "data",
                restart_backoff_s=0.05,
                restart_reset_s=0.5,
            )
            ready, stop = asyncio.Event(), asyncio.Event()
            task = asyncio.create_task(
                run_router(sharded, "127.0.0.1", 0, ready=ready, stop=stop)
            )
            await ready.wait()
            try:
                client = await ServeClient.connect("127.0.0.1", sharded.port)
                for t in tenants:
                    await client.open_session(t, config)
                    reply = await client.ingest(t, streams[t][:cut])
                    assert reply["accepted"] == cut  # acked => fsynced
                victim, survivor = tenants[0], tenants[1]
                victim_worker = sharded.shard_for(victim)
                assert victim_worker is not sharded.shard_for(survivor)

                os.kill(victim_worker.pid, signal.SIGKILL)

                # Co-resident shard serves while the victim is down.
                reply = await client.ingest(survivor, streams[survivor][cut : cut + 10])
                assert reply["accepted"] == 10
                snap = await client.snapshot(survivor)
                assert snap["stride"] >= 0

                # The victim's shard degrades to an error envelope, never a
                # hang — and heals via the router's supervised restart.
                saw_unavailable = False
                reopened = None
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    try:
                        reopened = await client.open_session(victim, config)
                        break
                    except ServeClientError as exc:
                        assert exc.code == "shard-unavailable", exc.code
                        saw_unavailable = True
                        await asyncio.sleep(0.02)
                assert reopened is not None, "victim shard never healed"
                assert saw_unavailable, "kill -9 was never even observed"

                # Zero acked loss: the resumed session covers every ack, so
                # the client's full re-send swallows exactly the acked prefix.
                assert reopened["replay_offset"] == cut
                reply = await client.ingest(victim, streams[victim])
                assert reply["accepted"] == n_points

                await client.ingest(survivor, streams[survivor][cut + 10 :])
                snapshots = {}
                for t in tenants:
                    await client.drain(t, flush_tail=True)
                    snapshots[t] = await client.snapshot(t)

                stats = await client.stats()
                assert stats["worker_restarts"] == 1
                assert stats["degraded"] == {}
                detail = {d["shard"]: d for d in stats["shard_detail"]}
                assert detail[victim_worker.index]["restarts"] == 1
                assert all(d["alive"] for d in stats["shard_detail"])
                assert all(
                    d["rss_bytes"] > 0 for d in stats["shard_detail"]
                ), "worker RSS should be measurable on linux"
                await client.close()
                return snapshots
            finally:
                stop.set()
                await task

        snapshots = asyncio.run(run())
        for t in tenants:
            assert snapshots[t]["labels"] == offline_final_labels(
                streams[t], config
            ), f"{t}: labels diverged from the offline run after kill -9"
