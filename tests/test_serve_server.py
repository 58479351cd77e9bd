"""End-to-end TCP tests: real sockets, JSON-lines frames, error envelopes."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import __version__
from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import run_server
from repro.serve.service import ClusterService

from .conftest import clustered_stream

CONFIG = {"eps": 0.8, "tau": 4, "window": 120, "stride": 30}


async def start_test_server(service):
    """Run the server on an ephemeral port; return (task, stop_event, port)."""
    ready, stop = asyncio.Event(), asyncio.Event()
    task = asyncio.create_task(
        run_server(service, "127.0.0.1", 0, ready=ready, stop=stop)
    )
    await asyncio.wait_for(ready.wait(), timeout=5)
    return task, stop, service.port


async def stop_test_server(task, stop):
    stop.set()
    await asyncio.wait_for(task, timeout=10)


def serve_scenario(coro_factory, *, service=None):
    """Boot a server, run the scenario coroutine against it, tear down."""

    async def runner():
        svc = service or ClusterService()
        task, stop, port = await start_test_server(svc)
        try:
            return await coro_factory(port)
        finally:
            await stop_test_server(task, stop)

    return asyncio.run(runner())


class TestLifecycle:
    def test_full_cycle_matches_offline(self, tmp_path):
        """OPEN → INGEST → DRAIN → SNAPSHOT equals api.cluster_stream."""
        points = clustered_stream(21, 300)

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                opened = await client.open_session("t1", CONFIG)
                assert opened["version"] == __version__
                assert opened["stride"] == -1
                for i in range(0, len(points), 50):
                    await client.ingest(
                        "t1", points[i : i + 50]
                    )
                await client.drain("t1", flush_tail=True)
                snapshot = await client.snapshot("t1")
                stats = await client.stats("t1")
                await client.close_session("t1")
                return snapshot, stats

        snapshot, stats = serve_scenario(scenario)
        offline = list(
            cluster_stream(points, WindowSpec(window=120, stride=30), eps=0.8, tau=4)
        )
        expected = offline[-1][0].labels
        assert snapshot["labels"] == {str(pid): cid for pid, cid in expected.items()}
        assert stats["ingested"] == 300
        assert stats["version"] == __version__

    def test_queries_answer_from_live_views(self):
        points = clustered_stream(22, 240)

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", CONFIG)
                await client.ingest("t1", list(points))
                await client.drain("t1", flush_tail=True)
                snapshot = await client.snapshot("t1")
                pid, label = next(iter(snapshot["labels"].items()))
                by_pid = await client.query_pid("t1", int(pid))
                by_coords = await client.query_coords("t1", (0.0, 0.0))
                return snapshot, by_pid, label, by_coords

        snapshot, by_pid, label, by_coords = serve_scenario(scenario)
        assert by_pid["label"] == label
        assert by_pid["tracked"] is True
        assert by_coords["stride"] == snapshot["stride"]
        assert "label" in by_coords and "nearest_core" in by_coords

    def test_two_connections_share_one_tenant(self):
        """A second client may query a tenant the first one feeds."""
        points = clustered_stream(23, 240)

        async def scenario(port):
            feeder = await ServeClient.connect("127.0.0.1", port)
            reader = await ServeClient.connect("127.0.0.1", port)
            try:
                await feeder.open_session("shared", CONFIG)
                await feeder.ingest("shared", list(points))
                await feeder.drain("shared", flush_tail=True)
                snapshot = await reader.snapshot("shared")
                return snapshot
            finally:
                await feeder.close()
                await reader.close()

        snapshot = serve_scenario(scenario)
        assert snapshot["stride"] == 240 // 30 - 1
        assert snapshot["num_points"] > 0

    def test_multi_tenant_isolation(self):
        streams = {
            "t1": clustered_stream(24, 150),
            "t2": clustered_stream(25, 210),
        }

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                for name, stream in streams.items():
                    await client.open_session(name, CONFIG)
                    await client.ingest(name, list(stream))
                    await client.drain(name, flush_tail=False)
                return {
                    name: await client.stats(name) for name in streams
                }, await client.stats()

        per_tenant, server_stats = serve_scenario(scenario)
        assert per_tenant["t1"]["ingested"] == 150
        assert per_tenant["t2"]["ingested"] == 210
        assert server_stats["sessions"] == ["t1", "t2"]
        assert server_stats["ingested"] == 360


class TestErrorEnvelopes:
    def test_unknown_session(self):
        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                with pytest.raises(ServeClientError) as err:
                    await client.snapshot("ghost")
                return err.value.code

        assert serve_scenario(scenario) == "no-such-session"

    def test_unknown_op_and_bad_json_keep_the_connection(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b'{"op": "FROBNICATE", "id": 1}\n')
                await writer.drain()
                first = json.loads(await reader.readline())
                writer.write(b"{this is not json\n")
                await writer.drain()
                second = json.loads(await reader.readline())
                # Connection must still work after both failures.
                writer.write(b'{"op": "STATS", "id": 2}\n')
                await writer.drain()
                third = json.loads(await reader.readline())
                return first, second, third
            finally:
                writer.close()
                await writer.wait_closed()

        first, second, third = serve_scenario(scenario)
        assert first["ok"] is False and first["error"]["code"] == "unknown-op"
        assert first["id"] == 1
        assert second["ok"] is False and second["error"]["code"] == "bad-frame"
        assert third["ok"] is True and third["version"] == __version__

    def test_conflicting_open_over_the_wire(self):
        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", CONFIG)
                # Same config: idempotent reattach.
                again = await client.open_session("t1", CONFIG)
                assert again["ok"] is True
                # Different config: refused.
                with pytest.raises(ServeClientError) as err:
                    await client.open_session("t1", dict(CONFIG, eps=9.9))
                return err.value.code

        assert serve_scenario(scenario) == "session-exists"

    def test_bad_config_over_the_wire(self):
        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                with pytest.raises(ServeClientError) as err:
                    await client.open_session("t1", {"eps": -1.0})
                return err.value.code

        assert serve_scenario(scenario) == "bad-request"

    def test_ingest_into_draining_session(self):
        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", CONFIG)
                await client.drain("t1")
                with pytest.raises(ServeClientError) as err:
                    await client.ingest("t1", [[1, [0.0, 0.0], 0.0]])
                return err.value.code

        assert serve_scenario(scenario) == "draining"

    def test_strict_session_failure_is_reported(self):
        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session(
                    "t1", dict(CONFIG, on_malformed="strict")
                )
                with pytest.raises(ServeClientError) as err:
                    # A malformed row under `strict` kills the writer; the
                    # INGEST response must carry session-failed, and so must
                    # every later write.
                    await client.request(
                        {"op": "INGEST", "session": "t1", "points": ["garbage"]}
                    )
                first = err.value.code
                with pytest.raises(ServeClientError) as err:
                    await client.ingest("t1", [[1, [0.0], 0.0]])
                return first, err.value.code

        first, second = serve_scenario(scenario)
        assert first == "session-failed"
        assert second == "session-failed"

    def test_query_needs_pid_or_coords(self):
        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", CONFIG)
                response = await client.request(
                    {"op": "QUERY", "session": "t1"}, check=False
                )
                return response

        response = serve_scenario(scenario)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_query_coords_must_be_a_list_of_finite_numbers(self):
        # Regression: the probe was built by iterating whatever arrived, so
        # "12" and {"1": 0, "2": 0} were both answered as the probe (1, 2).
        bad = [
            "12",
            {"1": 0, "2": 0},
            [],
            [True, 0.0],
            [0.0, "1"],
            [0.0, None],
            [[0.0, 0.0]],
            [float("nan"), 0.0],
            [float("inf"), 0.0],
            [10**400, 0.0],
            None,
        ]

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", CONFIG)
                replies = [
                    await client.request(
                        {"op": "QUERY", "session": "t1", "coords": coords},
                        check=False,
                    )
                    for coords in bad
                ]
                good = await client.request(
                    {"op": "QUERY", "session": "t1", "coords": [1, 2.5]}
                )
                return replies, good

        replies, good = serve_scenario(scenario)
        for coords, reply in zip(bad, replies):
            assert reply["ok"] is False, coords
            assert reply["error"]["code"] == "bad-request", coords
        assert good["ok"] is True
        assert good["label"] == -1 and good["nearest_core"] is None


class TestGracefulShutdown:
    def test_stop_drains_and_checkpoints_every_tenant(self, tmp_path):
        points = clustered_stream(26, 240)

        async def runner():
            service = ClusterService(data_dir=tmp_path)
            task, stop, port = await start_test_server(service)
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", CONFIG)
                await client.ingest("t1", list(points))
            await stop_test_server(task, stop)

        asyncio.run(runner())
        # Shutdown drained the queue and wrote a final checkpoint covering
        # every ingested point.
        checkpoints = list((tmp_path / "t1" / "ckpt").glob("checkpoint-*.json"))
        assert checkpoints
        newest = max(
            checkpoints, key=lambda p: int(p.stem.split("-")[1])
        )
        envelope = json.loads(newest.read_text())
        assert envelope["payload"]["stats"]["points_seen"] == 240
