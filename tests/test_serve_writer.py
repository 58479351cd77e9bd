"""The stepping writer: what requests see between the steps of a stride.

A tenant's writer feeds a stride-closing item through
``Supervisor.steps`` and awaits after each step: the item's admission, then
its stride (journal record, view publish and push), then any due
checkpoint. These tests pause the writer at those awaits and check what an
INGEST ack, a push, a new subscription and a reader observe there.
"""

from __future__ import annotations

import asyncio

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.query.journal import EvolutionJournal, encode_record
from repro.serve import SessionConfig, TenantSession
from repro.serve.protocol import encode_points
from repro.serve.server import dispatch
from repro.serve.service import ClusterService

from .conftest import clustered_stream

EPS, TAU = 0.8, 4
WINDOW, STRIDE = 120, 30
CONFIG = {"eps": EPS, "tau": TAU, "window": WINDOW, "stride": STRIDE}


def watch_steps(session) -> dict:
    """Wrap the session supervisor's ``steps``; ``watch["at"]`` names the
    step the writer last finished: ``"admitted"``, ``"stride"`` or
    ``"idle"`` once the item is done."""
    watch = {"at": "idle"}
    steps = session.supervisor.steps

    def watched(item):
        for step in steps(item):
            watch["at"] = "stride" if step else "admitted"
            yield step
        watch["at"] = "idle"

    session.supervisor.steps = watched
    return watch


async def pause_at(session, watch, step: str, next_stride: int) -> None:
    """Give the writer slots until it waits after ``step`` of the stride
    before ``next_stride``."""
    for _ in range(10_000):
        if watch["at"] == step and session.supervisor.stride == next_stride:
            return
        await asyncio.sleep(0)
    raise AssertionError(f"the writer never paused after {step!r}")


def durable_session(tmp_path, **overrides) -> TenantSession:
    config = SessionConfig(
        eps=EPS, tau=TAU, window=WINDOW, stride=STRIDE, **overrides
    )
    return TenantSession(
        "t",
        config,
        store=str(tmp_path / "ckpt"),
        evjournal=EvolutionJournal(tmp_path / "evj"),
    )


def checkpointed(store) -> list[int]:
    """The strides of the checkpoints on disk, oldest first."""
    return [store.load(path)[0] for path in store.checkpoints()]


def test_ingest_ack_precedes_the_stride_its_batch_closes():
    points = clustered_stream(41, 2 * STRIDE)

    async def scenario():
        service = ClusterService()
        await dispatch(service, {"op": "OPEN", "session": "t", "config": CONFIG})
        session = service.get("t")

        async def ingest(batch):
            frame = {"op": "INGEST", "session": "t", "points": encode_points(batch)}
            return await dispatch(service, frame)

        await ingest(points[: STRIDE - 1])
        await session._queue.join()
        reply = await ingest(points[STRIDE - 1 : STRIDE + 9])
        # The ack covers admission (and the WAL, when there is one); the
        # stride its batch closes has not run yet.
        at_ack = session.supervisor.stride, session.view.stride
        await session._queue.join()
        after = session.supervisor.stride, session.view.stride
        await service.shutdown()
        return reply, at_ack, after

    reply, at_ack, after = asyncio.run(scenario())
    assert reply["ok"] and reply["accepted"] == 10
    assert at_ack == (0, -1)
    assert after == (1, 0)


def test_batch_queued_behind_a_waiting_stride_reports_its_own_fault():
    """Strict policy: a batch dispatched while the writer waits before an
    earlier batch's stride is still admitted before its own reply."""
    points = clustered_stream(45, STRIDE)
    strict = dict(CONFIG, on_malformed="strict")

    async def scenario():
        service = ClusterService()
        await dispatch(service, {"op": "OPEN", "session": "t", "config": strict})
        session = service.get("t")
        first = await dispatch(
            service,
            {"op": "INGEST", "session": "t", "points": encode_points(points)},
        )
        waiting = session.supervisor.stride
        second = await dispatch(
            service, {"op": "INGEST", "session": "t", "points": ["garbage"]}
        )
        await service.shutdown()
        return first, waiting, second

    first, waiting, second = asyncio.run(scenario())
    assert first["ok"]
    assert waiting == 0  # stride 0 had not run when the second batch came
    assert not second["ok"]
    assert second["error"]["code"] == "session-failed"


def test_push_precedes_the_checkpoint_of_its_stride(tmp_path):
    async def scenario():
        session = durable_session(tmp_path, checkpoint_every=2)
        session.start()
        sub, _, _ = session.subscribe()
        store = session.supervisor.store
        await session.offer(clustered_stream(42, 2 * STRIDE))
        # Slot by slot until stride 1, whose close is due a checkpoint, is
        # pushed.
        while sub.queue.qsize() < 2:
            await asyncio.sleep(0)
        at_push = checkpointed(store)
        await session._queue.join()
        after = checkpointed(store)
        await session.close()
        return at_push, after

    at_push, after = asyncio.run(scenario())
    assert at_push == []
    assert after == [2]


def test_subscriptions_opened_between_steps_get_every_stride_once(tmp_path):
    async def scenario():
        session = durable_session(tmp_path, checkpoint_every=2)
        session.start()
        watch = watch_steps(session)
        store = session.supervisor.store
        await session.offer(clustered_stream(43, 6 * STRIDE))
        # Stride 2's item is admitted; its record is not journaled yet.
        await pause_at(session, watch, "admitted", next_stride=2)
        early = session.subscribe()
        # Stride 3 is journaled and pushed; its checkpoint is still to come.
        await pause_at(session, watch, "stride", next_stride=4)
        assert checkpointed(store) == [2]
        late = session.subscribe()
        await session._queue.join()
        assert checkpointed(store) == [2, 4, 6]
        await session.drain()
        journal = session.evjournal
        delivered = []
        for sub, cursor, head in (early, late):
            records = journal.read(cursor, head)
            while (record := sub.queue.get_nowait()) is not None:
                records.append(record)
            delivered.append((cursor, head, records))
        return journal.read(0), delivered

    journaled, delivered = asyncio.run(scenario())
    assert [r["stride"] for r in journaled] == list(range(6))
    (_, early_head, _), (_, late_head, _) = delivered
    assert (early_head, late_head) == (2, 4)
    for cursor, _, records in delivered:
        assert cursor == 0
        assert [encode_record(r) for r in records] == [
            encode_record(r) for r in journaled
        ]


def test_readers_run_inside_a_stride_and_see_only_whole_strides():
    points = clustered_stream(44, 300)
    spec = WindowSpec(window=WINDOW, stride=STRIDE)
    history = {-1: {}}
    for stride, (snapshot, _) in enumerate(
        cluster_stream(points, spec, eps=EPS, tau=TAU)
    ):
        history[stride] = dict(snapshot.labels)

    async def scenario():
        config = SessionConfig(eps=EPS, tau=TAU, window=WINDOW, stride=STRIDE)
        session = TenantSession("t", config)
        session.start()
        watch = watch_steps(session)
        seen = []
        stop = asyncio.Event()

        async def reader():
            while not stop.is_set():
                view = session.view
                seen.append(
                    (
                        watch["at"],
                        session.supervisor.stride,
                        view.stride,
                        dict(view.clustering.labels),
                    )
                )
                await asyncio.sleep(0)

        task = asyncio.create_task(reader())
        for i in range(0, len(points), 10):
            await session.offer(points[i : i + 10])
            await asyncio.sleep(0)
        await session.drain(flush_tail=True)
        stop.set()
        await task
        await session.close()
        return seen

    seen = asyncio.run(scenario())
    inside = [row for row in seen if row[0] == "admitted"]
    # A reader ran between the admission of a stride-closing item and the
    # stride itself, at (nearly) every stride...
    assert len({row[1] for row in inside}) >= len(points) // STRIDE - 1
    for _, next_stride, view_stride, _ in inside:
        # ...and it read the last published stride, not the one in flight.
        assert view_stride == next_stride - 1
    for _, _, view_stride, labels in seen:
        assert labels == history[view_stride], f"torn read at {view_stride}"
