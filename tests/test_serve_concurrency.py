"""Readers vs. the writer: copy-on-publish must never expose torn state.

Satellite of the serving subsystem: concurrent reader tasks hammer the query
surface (membership, classification, full snapshots) while the writer task
advances strides. Every view a reader observes must be internally consistent
AND byte-identical to a fresh offline ``api.cluster_stream`` run truncated
at that view's stride — i.e. a reader can see *older* state, but never
*half-advanced* state.
"""

from __future__ import annotations

import asyncio

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.serve import SessionConfig, TenantSession

from .conftest import clustered_stream

EPS, TAU = 0.8, 4
WINDOW, STRIDE = 120, 30
N_POINTS = 450  # 15 exact strides
N_READERS = 8


def expected_history(points):
    """stride index -> offline labels dict (plus the pre-stream empty view)."""
    spec = WindowSpec(window=WINDOW, stride=STRIDE)
    history = {-1: {}}
    for i, (snapshot, _) in enumerate(
        cluster_stream(points, spec, eps=EPS, tau=TAU)
    ):
        history[i] = dict(snapshot.labels)
    return history


async def hammer(session, observations, stop):
    """One reader: grab the current view, interrogate it, record what it saw."""
    while not stop.is_set():
        view = session.view  # the atomic read: one reference load
        labels = dict(view.clustering.labels)
        payload = view.snapshot_payload()

        # Internal consistency of this one view (torn-read detection): the
        # snapshot payload, the core set and the membership answers must all
        # describe the same stride — every query surface stamps the same
        # ``stride`` consistency token, so a client can detect when two
        # answers came from different window states.
        assert payload["stride"] == view.stride
        assert payload["num_points"] == len(payload["categories"])
        assert payload["labels"] == {str(pid): cid for pid, cid in labels.items()}
        assert set(payload["labels"]) <= set(payload["categories"])
        for pid, core_label in zip(view.core_pids.tolist(), view.core_labels.tolist()):
            assert labels.get(pid) == core_label, (
                f"core {pid} labelled {core_label} but snapshot says "
                f"{labels.get(pid)} at stride {view.stride}"
            )
        verdict = view.classify((0.0, 0.0))
        assert verdict["stride"] == view.stride
        if labels:
            probe = next(iter(labels))
            answer = view.membership(probe)
            assert answer["stride"] == view.stride == payload["stride"]
            assert answer["label"] == labels[probe]

        observations.append((view.stride, labels))
        await asyncio.sleep(0)


async def run_stress(points):
    config = SessionConfig(
        eps=EPS, tau=TAU, window=WINDOW, stride=STRIDE, backpressure="block"
    )
    session = TenantSession("stress", config)
    session.start()

    stop = asyncio.Event()
    observations: list[tuple[int, dict]] = []
    readers = [
        asyncio.create_task(hammer(session, observations, stop))
        for _ in range(N_READERS)
    ]

    # Feed in small slices, yielding between them, so readers genuinely
    # interleave with the writer across every stride boundary.
    for i in range(0, len(points), 10):
        await session.offer(points[i : i + 10])
        await asyncio.sleep(0)

    await session.drain(flush_tail=True)
    # Let every reader observe the final stride at least once.
    for _ in range(3):
        await asyncio.sleep(0)
    stop.set()
    await asyncio.gather(*readers)
    await session.close()
    return session, observations


def test_concurrent_readers_never_see_torn_strides():
    points = clustered_stream(31, N_POINTS)
    expected = expected_history(points)

    session, observations = asyncio.run(run_stress(points))

    assert observations, "readers never ran"
    strides_seen = {stride for stride, _ in observations}
    # The readers genuinely raced the writer across stride boundaries...
    assert len(strides_seen) > 3, f"readers only saw strides {strides_seen}"
    assert max(strides_seen) == N_POINTS // STRIDE - 1
    # ...and every single observation matches the offline run at that
    # stride, byte for byte. A half-advanced window could not.
    for stride, labels in observations:
        assert labels == expected[stride], f"torn read at stride {stride}"
    # The session itself ended where the offline run ended.
    assert dict(session.view.clustering.labels) == expected[max(expected)]


def test_queries_are_not_blocked_by_a_busy_writer():
    """Reads complete between strides even while ingestion is saturated."""

    async def scenario():
        points = clustered_stream(32, 300)
        config = SessionConfig(
            eps=EPS, tau=TAU, window=WINDOW, stride=STRIDE, queue_limit=4096
        )
        session = TenantSession("busy", config)
        session.start()
        # Saturate the queue in one go; the writer now has 300 points of
        # work pending.
        await session.offer(points)
        reads = 0
        while session.ingested < len(points):
            view = session.view
            view.classify((0.0, 0.0))
            reads += 1
            await asyncio.sleep(0)
        await session.drain(flush_tail=True)
        await session.close()
        return reads

    reads = asyncio.run(scenario())
    # One read slot per stride boundary (the writer's only yield points).
    assert reads >= 300 // STRIDE - 1
