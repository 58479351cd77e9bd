"""End-to-end tests for the query subsystem behind the serve layer.

The acceptance bar has three legs:

1. **Byte-identity of the CDC stream.** The records a live ``SUBSCRIBE``
   pushes, the records an ``EVENTS`` replay from cursor 0 returns, and the
   records built offline from ``api.cluster_stream`` over the same points
   are byte-for-byte identical (canonical encoding) — across index
   backends.
2. **AS_OF equals the pipeline's past.** A time-travel query at stride S
   returns exactly the membership the pipeline had when stride S closed.
3. **Subscription semantics.** Resume-from-cursor, the stride consistency
   token, slow-consumer policies, and drain/close termination behave as
   documented in docs/serving.md.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.common.snapshot import Clustering
from repro.query.journal import encode_record, stride_record
from repro.serve import SessionConfig, TenantSession
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.service import ClusterService

from .conftest import clustered_stream
from .test_serve_server import serve_scenario

EPS, TAU = 0.8, 4
WINDOW, STRIDE = 120, 30


def journal_config(**overrides) -> dict:
    base = {
        "eps": EPS,
        "tau": TAU,
        "window": WINDOW,
        "stride": STRIDE,
        "journal": True,
        "archive_every": 3,
    }
    base.update(overrides)
    return base


def offline_records(points, *, index=None) -> list[dict]:
    """The ground-truth CDC stream of one tenant, built offline."""
    last = {"time": None}

    def tracked():
        for p in points:
            last["time"] = p.time
            yield p

    spec = WindowSpec(window=WINDOW, stride=STRIDE)
    prev = None
    records = []
    for s, (clustering, summary) in enumerate(
        cluster_stream(tracked(), spec, eps=EPS, tau=TAU, index=index)
    ):
        records.append(
            stride_record(s, prev, clustering, summary, time=last["time"])
        )
        prev = clustering
    return records


def offline_states(points) -> list[dict]:
    """Ground-truth membership ``{pid: (label, cat)}`` per stride."""
    spec = WindowSpec(window=WINDOW, stride=STRIDE)
    states = []
    for clustering, _ in cluster_stream(points, spec, eps=EPS, tau=TAU):
        states.append(
            {
                pid: (clustering.labels.get(pid, Clustering.NOISE_ID), cat.value)
                for pid, cat in clustering.categories.items()
            }
        )
    return states


async def subscribe_and_collect(port, name, *, cursor=0, ready=None):
    """A dedicated subscriber connection: collect records until the end."""
    client = await ServeClient.connect("127.0.0.1", port)
    try:
        reply = await client.subscribe(name, cursor=cursor)
        if ready is not None:
            ready.set()
        records = []
        end = None
        async for frame in client.pushes():
            if frame["push"] == "event":
                records.append(frame["record"])
            else:
                end = frame
        return reply, records, end
    finally:
        await client.close()


class TestByteIdentity:
    @pytest.mark.parametrize("index", ["vectorgrid", "rtree"])
    def test_live_subscribe_events_and_offline_agree(self, tmp_path, index):
        """Identity leg 1: live push == EVENTS replay == offline build."""
        points = clustered_stream(51, 330)
        config = journal_config(index=index)

        async def scenario(port):
            subscribed = asyncio.Event()
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                # Subscribe from 0 *before* any stride closes: the whole
                # stream arrives as live pushes, not journal backlog.
                collector = asyncio.create_task(
                    subscribe_and_collect(port, "t1", ready=subscribed)
                )
                await asyncio.wait_for(subscribed.wait(), timeout=5)
                for i in range(0, len(points), 40):
                    await client.ingest("t1", points[i : i + 40])
                await client.drain("t1", flush_tail=True)
                reply, live, end = await asyncio.wait_for(collector, timeout=10)
                pulled = await client.events("t1", cursor=0)
                return reply, live, end, pulled

        service = ClusterService(data_dir=tmp_path)
        reply, live, end, pulled = serve_scenario(
            lambda port: scenario(port), service=service
        )
        expected = offline_records(points, index=index)
        assert reply["cursor"] == 0

        as_bytes = lambda rs: [encode_record(r) for r in rs]  # noqa: E731
        assert as_bytes(live) == as_bytes(expected)
        assert as_bytes(pulled["events"]) == as_bytes(expected)
        assert pulled["head"] == len(expected)
        assert pulled["next_cursor"] == len(expected)
        assert end["reason"] == "drained"
        assert end["cursor"] == len(expected)

    def test_backends_produce_identical_journals(self, tmp_path):
        """Identity leg 2: the CDC stream is backend-invariant."""
        points = clustered_stream(52, 300)
        vectorgrid = offline_records(points, index="vectorgrid")
        rtree = offline_records(points, index="rtree")
        assert [encode_record(r) for r in vectorgrid] == [
            encode_record(r) for r in rtree
        ]

    def test_events_pagination(self, tmp_path):
        points = clustered_stream(53, 300)
        config = journal_config()

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                for i in range(0, len(points), 40):
                    await client.ingest("t1", points[i : i + 40])
                await client.drain("t1", flush_tail=True)
                pages = []
                cursor = 0
                while True:
                    page = await client.events("t1", cursor=cursor, limit=3)
                    pages.append(page)
                    if not page["events"]:
                        break
                    cursor = page["next_cursor"]
                return pages

        pages = serve_scenario(scenario, service=ClusterService(data_dir=tmp_path))
        expected = offline_records(points)
        paged = [r for page in pages for r in page["events"]]
        assert [encode_record(r) for r in paged] == [
            encode_record(r) for r in expected
        ]
        assert all(len(p["events"]) <= 3 for p in pages)


class TestSubscribeSemantics:
    def test_resume_from_cursor_gets_backlog_then_live(self, tmp_path):
        """A subscriber arriving late replays [cursor, head) from the
        journal, then rides the live queue — no gap, no duplicate."""
        points = clustered_stream(54, 330)
        config = journal_config()
        half = 150

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                for i in range(0, half, 30):
                    await client.ingest("t1", points[i : i + 30])
                # Strides exist now; subscribe from 2 (mid-backlog).
                subscribed = asyncio.Event()
                collector = asyncio.create_task(
                    subscribe_and_collect(port, "t1", cursor=2, ready=subscribed)
                )
                await asyncio.wait_for(subscribed.wait(), timeout=5)
                for i in range(half, len(points), 30):
                    await client.ingest("t1", points[i : i + 30])
                await client.drain("t1", flush_tail=True)
                return await asyncio.wait_for(collector, timeout=10)

        reply, records, end = serve_scenario(
            lambda p: scenario(p), service=ClusterService(data_dir=tmp_path)
        )
        expected = offline_records(points)
        assert reply["cursor"] == 2
        assert reply["head"] >= 2
        assert [encode_record(r) for r in records] == [
            encode_record(r) for r in expected[2:]
        ]
        assert end["cursor"] == len(expected)

    def test_subscribe_without_journal_is_bad_request(self, tmp_path):
        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session(
                    "t1", {"eps": EPS, "tau": TAU, "window": WINDOW, "stride": STRIDE}
                )
                with pytest.raises(ServeClientError) as err:
                    await client.subscribe("t1")
                return err.value.code

        assert serve_scenario(scenario) == "bad-request"

    def test_bad_policy_is_bad_request(self, tmp_path):
        config = journal_config()

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                with pytest.raises(ServeClientError) as err:
                    await client.subscribe("t1", policy="teleport")
                return err.value.code

        code = serve_scenario(scenario, service=ClusterService(data_dir=tmp_path))
        assert code == "bad-request"

    def test_slow_consumer_disconnect_ends_with_resume_cursor(self, tmp_path):
        """Session-level: the ``disconnect`` policy cuts off a subscriber
        whose queue is full and hands it a terminal frame; the session's
        writer never stalls."""
        points = clustered_stream(55, 330)
        config = SessionConfig(**journal_config())

        async def run():
            session = TenantSession(
                "t",
                config,
                evjournal=_journal(tmp_path / "evj"),
                archive=None,
            )
            session.start()
            sub, cursor, head = session.subscribe(
                cursor=0, policy="disconnect", queue_limit=2
            )
            for i in range(0, len(points), 30):
                await session.offer(points[i : i + 30])
            await session.drain(flush_tail=True)
            await session.close()
            return sub

        sub = asyncio.run(run())
        assert sub.closed
        assert sub.reason == "slow-consumer"

    def test_block_policy_stalls_until_consumed(self, tmp_path):
        """Session-level: the ``block`` policy parks the writer on the full
        subscriber queue — consuming unblocks it and every record arrives."""
        points = clustered_stream(56, 330)
        config = SessionConfig(**journal_config())

        async def run():
            session = TenantSession(
                "t",
                config,
                evjournal=_journal(tmp_path / "evj"),
                archive=None,
            )
            session.start()
            sub, cursor, head = session.subscribe(
                cursor=0, policy="block", queue_limit=2
            )
            got = []

            async def consume():
                while True:
                    record = await sub.queue.get()
                    if record is None:
                        return
                    got.append(record)

            consumer = asyncio.create_task(consume())
            for i in range(0, len(points), 30):
                await session.offer(points[i : i + 30])
            await session.drain(flush_tail=True)
            await asyncio.wait_for(consumer, timeout=10)
            await session.close()
            return got

        got = asyncio.run(run())
        expected = offline_records(points)
        assert [encode_record(r) for r in got] == [
            encode_record(r) for r in expected
        ]


def _journal(directory):
    from repro.query.journal import EvolutionJournal

    return EvolutionJournal(directory)


class TestAsOf:
    def test_as_of_matches_pipeline_history(self, tmp_path):
        """AS_OF(stride) == the membership when that stride closed."""
        points = clustered_stream(57, 360)
        config = journal_config(archive_every=3)

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                for i in range(0, len(points), 40):
                    await client.ingest("t1", points[i : i + 40])
                await client.drain("t1", flush_tail=True)
                answers = {}
                for s in range(360 // STRIDE - 1):
                    answers[s] = await client.query_as_of("t1", stride=s)
                return answers

        answers = serve_scenario(
            lambda p: scenario(p), service=ClusterService(data_dir=tmp_path)
        )
        states = offline_states(points)
        for s, payload in answers.items():
            # Noise carries no label, as in SNAPSHOT.
            expected_labels = {
                str(pid): lab
                for pid, (lab, _) in states[s].items()
                if lab != Clustering.NOISE_ID
            }
            expected_cats = {str(pid): cat for pid, (_, cat) in states[s].items()}
            assert payload["stride"] == s
            assert payload["labels"] == expected_labels, f"stride {s}"
            assert payload["categories"] == expected_cats, f"stride {s}"

    def test_as_of_time_and_pid_projection(self, tmp_path):
        points = clustered_stream(58, 300)
        config = journal_config()

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                for i in range(0, len(points), 40):
                    await client.ingest("t1", points[i : i + 40])
                await client.drain("t1", flush_tail=True)
                events = await client.events("t1", cursor=0)
                stamp = events["events"][2]["time"]
                by_time = await client.query_as_of("t1", time=stamp)
                full = await client.query_as_of("t1", stride=2)
                pid = int(next(iter(full["categories"])))
                projected = await client.query_as_of("t1", stride=2, pid=pid)
                missing = await client.query_as_of("t1", stride=2, pid=10**9)
                return by_time, full, projected, missing, pid

        by_time, full, projected, missing, pid = serve_scenario(
            lambda p: scenario(p), service=ClusterService(data_dir=tmp_path)
        )
        assert by_time["stride"] == 2
        assert projected["stride"] == 2
        assert projected["present"] is True
        assert projected["label"] == full["labels"].get(
            str(pid), Clustering.NOISE_ID
        )
        assert projected["category"] == full["categories"][str(pid)]
        assert missing["present"] is False and missing["label"] is None

    def test_as_of_equals_the_snapshot_taken_live(self, tmp_path):
        """AS_OF(S) answers what SNAPSHOT answered while S was live."""
        points = clustered_stream(60, 300)
        config = journal_config(archive_every=4)
        fields = ("stride", "num_points", "num_clusters", "labels", "categories")

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                live = {}
                for i in range(0, len(points), STRIDE):
                    await client.ingest("t1", points[i : i + STRIDE])
                    await client.events("t1", cursor=0)  # let the writer run
                    snap = await client.snapshot("t1")
                    if snap["stride"] >= 0:
                        live[snap["stride"]] = {f: snap[f] for f in fields}
                await client.drain("t1", flush_tail=True)
                past = {}
                for s in live:
                    reply = await client.query_as_of("t1", stride=s)
                    past[s] = {f: reply[f] for f in fields}
                noise = next(
                    pid
                    for pid, cat in reply["categories"].items()
                    if cat == "noise"
                )
                projected = await client.query_as_of(
                    "t1", stride=max(live), pid=int(noise)
                )
                return live, past, projected

        live, past, projected = serve_scenario(
            scenario, service=ClusterService(data_dir=tmp_path)
        )
        assert len(live) >= 5
        for s in live:
            assert past[s] == live[s], f"stride {s}"
        assert projected["present"] is True
        assert projected["label"] == Clustering.NOISE_ID
        assert projected["category"] == "noise"

    def test_as_of_ahead_of_head_is_bad_request(self, tmp_path):
        points = clustered_stream(59, 240)
        config = journal_config()

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                for i in range(0, len(points), 40):
                    await client.ingest("t1", points[i : i + 40])
                await client.drain("t1", flush_tail=True)
                with pytest.raises(ServeClientError) as err:
                    await client.query_as_of("t1", stride=10**6)
                return err.value.code

        code = serve_scenario(scenario, service=ClusterService(data_dir=tmp_path))
        assert code == "bad-request"


class TestConsistencyToken:
    def test_query_and_snapshot_carry_the_stride_token(self, tmp_path):
        """Satellite: every read-path response names the stride it reflects,
        and the token matches the journal head - 1 when the pipe is idle."""
        points = clustered_stream(60, 300)
        config = journal_config()

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                for i in range(0, len(points), 40):
                    await client.ingest("t1", points[i : i + 40])
                await client.drain("t1", flush_tail=True)
                snapshot = await client.snapshot("t1")
                by_pid = await client.query_pid("t1", points[-1].pid)
                by_coords = await client.query_coords("t1", points[-1].coords)
                events = await client.events("t1", cursor=0)
                return snapshot, by_pid, by_coords, events

        snapshot, by_pid, by_coords, events = serve_scenario(
            lambda p: scenario(p), service=ClusterService(data_dir=tmp_path)
        )
        final = events["head"] - 1
        assert snapshot["stride"] == final
        assert by_pid["stride"] == final
        assert by_coords["stride"] == final


class TestJournalLifecycle:
    def test_journal_survives_close_and_resume(self, tmp_path):
        """CLOSE then re-OPEN with resume: the CDC history is still there
        and EVENTS picks up exactly where the journal head was."""
        points = clustered_stream(61, 300)
        config = journal_config()

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                for i in range(0, len(points), 40):
                    await client.ingest("t1", points[i : i + 40])
                await client.drain("t1", flush_tail=True)
                before = await client.events("t1", cursor=0)
                await client.close_session("t1")
                await client.open_session("t1", config, resume=True)
                after = await client.events("t1", cursor=0)
                return before, after

        before, after = serve_scenario(
            lambda p: scenario(p), service=ClusterService(data_dir=tmp_path)
        )
        assert [encode_record(r) for r in after["events"]] == [
            encode_record(r) for r in before["events"]
        ]

    def test_stats_surface_journal_and_archive_counters(self, tmp_path):
        points = clustered_stream(62, 240)
        config = journal_config(archive_every=3)

        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                await client.open_session("t1", config)
                for i in range(0, len(points), 40):
                    await client.ingest("t1", points[i : i + 40])
                await client.drain("t1", flush_tail=True)
                return await client.stats("t1")

        stats = serve_scenario(
            lambda p: scenario(p), service=ClusterService(data_dir=tmp_path)
        )
        strides = 240 // STRIDE
        assert stats["journal"]["appends"] == strides
        assert stats["journal"]["head"] == strides
        assert stats["journal"]["floor"] == 0
        assert stats["journal"]["subscribers"] == 0
        assert stats.get("journal_error") is None  # only present on failure
        assert stats["archive"]["every"] == 3
        assert stats["archive"]["snapshots"] >= 2

    def test_journal_requires_data_dir(self):
        async def scenario(port):
            async with await ServeClient.connect("127.0.0.1", port) as client:
                with pytest.raises(ServeClientError) as err:
                    await client.open_session("t1", journal_config())
                return err.value.code

        assert serve_scenario(scenario) == "bad-request"
