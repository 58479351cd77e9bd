"""Conformance suite: every index honours the NeighborIndex contract.

One parametrized battery runs against every index DISC is tested on (the
registry's backends and the grid baselines' ``GridIndex``): agreement with a
brute-force oracle on ``ball`` and ``ball_pids``, correct delete-then-query
behaviour, all-or-nothing batches, stats accounting, and a batched query
layer whose results are identical — bit for bit — to per-point loops. The
epoch-probing battery (paper Algorithm 4) runs on the backends that declare
``supports_epochs``.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.common.errors import IndexError_
from repro.index import NeighborIndex, available_indexes, make_index
from tests.conftest import DISC_INDEXES, disc_index

EPS = 0.75
DIM = 2
BACKENDS = DISC_INDEXES


def make_backend(name: str) -> NeighborIndex:
    return make_index(disc_index(name, EPS), eps=EPS)


EPOCH_BACKENDS = tuple(
    name for name in BACKENDS if make_backend(name).supports_epochs
)


def cloud(n: int, seed: int, dim: int = DIM) -> list[tuple[int, tuple[float, ...]]]:
    rng = random.Random(seed)
    return [
        (pid, tuple(rng.uniform(0.0, 6.0) for _ in range(dim)))
        for pid in range(n)
    ]


def oracle_ball(points, center, radius):
    return sorted(
        pid for pid, coords in points if math.dist(coords, center) <= radius
    )


@pytest.fixture(params=BACKENDS)
def backend(request):
    index = make_backend(request.param)
    yield index
    index.check_invariants()


def test_registry_is_complete():
    assert available_indexes() == ("linear", "rtree", "vectorgrid")
    assert EPOCH_BACKENDS == ("linear", "rtree")


class TestBallAgainstOracle:
    def test_ball_matches_linear_oracle(self, backend):
        points = cloud(180, seed=1)
        for pid, coords in points:
            backend.insert(pid, coords)
        rng = random.Random(2)
        for radius in (EPS, EPS / 3, 0.0):
            for _ in range(25):
                center = (rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
                got = sorted(pid for pid, _ in backend.ball(center, radius))
                assert got == oracle_ball(points, center, radius)

    def test_ball_pids_matches_ball(self, backend):
        points = cloud(150, seed=3)
        for pid, coords in points:
            backend.insert(pid, coords)
        rng = random.Random(4)
        for _ in range(40):
            center = (rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
            pids = backend.ball_pids(center, EPS)
            assert pids.dtype == np.int64
            assert pids.tolist() == [pid for pid, _ in backend.ball(center, EPS)]

    def test_ball_returns_indexed_coords(self, backend):
        points = cloud(60, seed=5)
        for pid, coords in points:
            backend.insert(pid, coords)
        lookup = dict(points)
        for pid, coords in backend.ball(points[0][1], EPS):
            assert coords == lookup[pid]


class TestMutation:
    def test_delete_then_query(self, backend):
        points = cloud(120, seed=6)
        for pid, coords in points:
            backend.insert(pid, coords)
        removed = [pid for pid, _ in points[::3]]
        for pid in removed:
            backend.delete(pid)
        survivors = [item for item in points if item[0] not in set(removed)]
        assert len(backend) == len(survivors)
        rng = random.Random(7)
        for _ in range(20):
            center = (rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
            got = sorted(pid for pid, _ in backend.ball(center, EPS))
            assert got == oracle_ball(survivors, center, EPS)
        for pid in removed:
            assert pid not in backend
            with pytest.raises(IndexError_):
                backend.delete(pid)

    def test_duplicate_insert_rejected(self, backend):
        backend.insert(1, (0.0, 0.0))
        with pytest.raises(IndexError_):
            backend.insert(1, (1.0, 1.0))

    def test_items_round_trip(self, backend):
        points = cloud(50, seed=8)
        for pid, coords in points:
            backend.insert(pid, coords)
        assert sorted(backend.items()) == sorted(points)
        for pid, coords in points[:10]:
            assert backend.coords_of(pid) == coords


# Each case: (points indexed first, batch method, a batch it must reject).
REJECTED_BATCHES = {
    # On an empty R-tree this batch takes the STR bulk path.
    "in-batch duplicate, empty index": (
        [],
        "insert_many",
        [(i, (i / 4, 0.0)) for i in range(12)] + [(3, (2.0, 2.0))],
    ),
    "in-batch duplicate": (
        cloud(30, seed=23),
        "insert_many",
        [(100 + i, (i / 4, 1.0)) for i in range(5)] + [(102, (2.0, 2.0))],
    ),
    "pid already indexed": (
        cloud(30, seed=23),
        "insert_many",
        [(100 + i, (i / 4, 1.0)) for i in range(5)] + [(7, (2.0, 2.0))],
    ),
    "unknown pid": (cloud(30, seed=23), "delete_many", [0, 1, 2, 999]),
    "pid deleted twice": (cloud(30, seed=23), "delete_many", [0, 1, 2, 1]),
}


# Every backend as is, and each epoch backend again probing epochs after.
REJECTED_ARMS = [(name, False) for name in BACKENDS] + [
    (name, True) for name in EPOCH_BACKENDS
]


class TestRejectedBatches:
    """A rejected batch raises and leaves the backend exactly as it was."""

    @pytest.mark.parametrize("case", sorted(REJECTED_BATCHES))
    @pytest.mark.parametrize(
        "name,epochs",
        REJECTED_ARMS,
        ids=[
            f"{name}-{'with_epochs' if epochs else 'raw'}"
            for name, epochs in REJECTED_ARMS
        ],
    )
    def test_rejected_batch_changes_nothing(self, name, epochs, case):
        prefill, method, batch = REJECTED_BATCHES[case]
        index = make_backend(name)
        index.insert_many(prefill)
        items, stats = sorted(index.items()), index.stats.snapshot()
        with pytest.raises(IndexError_):
            getattr(index, method)(batch)
        assert sorted(index.items()) == items
        assert len(index) == len(items)
        assert index.stats == stats
        for pid, _ in items:
            assert pid in index
        index.check_invariants()
        if epochs:
            # Every indexed point still has an epoch and nothing else does.
            tick = index.new_tick()
            for _, coords in items:
                index.ball_unvisited(coords, EPS, tick)
            with pytest.raises(IndexError_):
                index.mark(999, tick)


class TestBatchedLayer:
    """The batched API must be indistinguishable from per-point loops."""

    def test_insert_many_equals_looped_inserts(self, backend_name_pair):
        batched, looped = backend_name_pair
        points = cloud(200, seed=9)
        batched.insert_many(points)
        for pid, coords in points:
            looped.insert(pid, coords)
        rng = random.Random(10)
        for _ in range(25):
            center = (rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
            assert sorted(batched.ball(center, EPS)) == sorted(
                looped.ball(center, EPS)
            )

    def test_delete_many_equals_looped_deletes(self, backend_name_pair):
        batched, looped = backend_name_pair
        points = cloud(150, seed=11)
        batched.insert_many(points)
        looped.insert_many(points)
        doomed = [pid for pid, _ in points[::4]]
        batched.delete_many(doomed)
        for pid in doomed:
            looped.delete(pid)
        assert sorted(batched.items()) == sorted(looped.items())

    def test_ball_many_identical_to_looped_balls(self, backend):
        points = cloud(160, seed=12)
        backend.insert_many(points)
        rng = random.Random(13)
        # Centers on indexed points maximise boundary cases (dist == radius).
        centers = [coords for _, coords in points[::5]] + [
            (rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)) for _ in range(30)
        ]
        batched = backend.ball_many_pids(centers, EPS)
        looped = [backend.ball_pids(center, EPS) for center in centers]
        assert all(pids.dtype == np.int64 for pids in batched)
        # Same points, same order, bit-identical.
        assert [pids.tolist() for pids in batched] == [
            pids.tolist() for pids in looped
        ]

    def test_count_ball_many_bit_identical(self, backend):
        """Neighbour counts from one batched call equal per-point ``ball``."""
        points = cloud(220, seed=14)
        backend.insert_many(points)
        rng = random.Random(15)
        # Centers on indexed points maximise boundary cases (dist == radius).
        centers = [coords for _, coords in points[::5]] + [
            (rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)) for _ in range(20)
        ]
        batched = [len(pids) for pids in backend.ball_many_pids(centers, EPS)]
        looped = [len(backend.ball(center, EPS)) for center in centers]
        assert batched == looped

    def test_batched_calls_on_empty_index(self, backend):
        (pids,) = backend.ball_many_pids([(0.0, 0.0)], EPS)
        assert pids.tolist() == []
        assert backend.ball_many_pids([], EPS) == []
        assert backend.ball_pids((0.0, 0.0), EPS).tolist() == []


@pytest.fixture(params=BACKENDS)
def backend_name_pair(request):
    """Two fresh instances of the same backend, for batched-vs-looped tests."""
    return make_backend(request.param), make_backend(request.param)


class TestEpochProbing:
    """Epoch semantics must hold on every backend that declares them."""

    @pytest.fixture(params=EPOCH_BACKENDS)
    def epoch_backend(self, request):
        index = make_backend(request.param)
        points = cloud(90, seed=16)
        index.insert_many(points)
        return index, points

    def test_first_probe_equals_plain_ball(self, epoch_backend):
        index, points = epoch_backend
        tick = index.new_tick()
        center = points[0][1]
        unvisited = sorted(pid for pid, _ in index.ball_unvisited(center, EPS, tick))
        assert unvisited == sorted(pid for pid, _ in index.ball(center, EPS))

    def test_visited_points_are_not_returned_again(self, epoch_backend):
        index, points = epoch_backend
        tick = index.new_tick()
        center = points[0][1]
        first = index.ball_unvisited(center, EPS, tick)
        assert index.ball_unvisited(center, EPS, tick) == []
        # Overlapping probe: only points outside the first ball may show up.
        seen = {pid for pid, _ in first}
        other = index.ball_unvisited(points[1][1], EPS, tick)
        assert not seen & {pid for pid, _ in other}

    def test_should_mark_defers_marking(self, epoch_backend):
        index, points = epoch_backend
        tick = index.new_tick()
        center = points[0][1]
        first = index.ball_unvisited(center, EPS, tick, lambda pid: False)
        second = index.ball_unvisited(center, EPS, tick, lambda pid: False)
        assert sorted(first) == sorted(second)  # nothing was marked
        for pid, _ in first:
            index.mark(pid, tick)
        assert index.ball_unvisited(center, EPS, tick) == []

    def test_new_tick_resets_visibility(self, epoch_backend):
        index, points = epoch_backend
        center = points[0][1]
        tick = index.new_tick()
        index.ball_unvisited(center, EPS, tick)
        fresh = index.new_tick()
        assert fresh > tick
        unvisited = sorted(pid for pid, _ in index.ball_unvisited(center, EPS, fresh))
        assert unvisited == sorted(pid for pid, _ in index.ball(center, EPS))

    def test_mark_unknown_pid_rejected(self, epoch_backend):
        index, _ = epoch_backend
        tick = index.new_tick()
        with pytest.raises(IndexError_):
            index.mark(10_000, tick)

    def test_inserted_point_starts_unvisited(self, epoch_backend):
        index, points = epoch_backend
        tick = index.new_tick()
        center = points[0][1]
        index.ball_unvisited(center, EPS, tick)
        index.insert(9_999, center)
        late = index.ball_unvisited(center, EPS, tick)
        assert [pid for pid, _ in late] == [9_999]


class TestStats:
    def test_range_searches_counted_per_center(self, backend):
        points = cloud(40, seed=18)
        backend.insert_many(points)
        before = backend.stats.range_searches
        centers = [coords for _, coords in points[:7]]
        backend.ball_many_pids(centers, EPS)
        for center in centers:
            backend.ball_pids(center, EPS)
        assert backend.stats.range_searches == before + 14

    def test_every_backend_counts_search_work(self, backend):
        """ball on a non-empty index must move all three search counters."""
        points = cloud(60, seed=19)
        backend.insert_many(points)
        before = backend.stats.snapshot()
        for _, coords in points[:5]:
            backend.ball(coords, EPS)
        delta = backend.stats.snapshot() - before
        assert delta.range_searches == 5
        # The search visited *some* structure and scanned *some* entries —
        # a backend that reports zero work for a hit-producing search is
        # not instrumented.
        assert delta.nodes_accessed > 0
        assert delta.entries_scanned > 0

    def test_inserts_and_deletes_counted(self, backend):
        points = cloud(30, seed=20)
        backend.insert_many(points)
        assert backend.stats.inserts == 30
        backend.delete_many([pid for pid, _ in points[:10]])
        assert backend.stats.deletes == 10

    def test_snapshot_sub_round_trip(self, backend):
        from repro.index.stats import IndexStats

        fields = (
            "range_searches",
            "nodes_accessed",
            "entries_scanned",
            "inserts",
            "deletes",
            "epoch_prunes",
        )

        points = cloud(50, seed=21)
        backend.insert_many(points)
        before = backend.stats.snapshot()
        backend.ball(points[0][1], EPS)
        backend.delete(points[0][0])
        after = backend.stats.snapshot()
        delta = after - before
        assert isinstance(delta, IndexStats)
        # snapshot is an independent copy: mutating the live stats must not
        # retro-change it.
        backend.ball(points[1][1], EPS)
        assert after.range_searches == before.range_searches + 1
        # before + delta == after, field by field (epoch_prunes included).
        for name in fields:
            assert getattr(before, name) + getattr(delta, name) == getattr(
                after, name
            )
        assert tuple(delta.as_dict()) == fields

    @pytest.mark.parametrize("name", EPOCH_BACKENDS)
    def test_epoch_prunes_counted_on_every_backend(self, name):
        """Probing the same ball twice in one tick prunes on the second.

        On every backend that declares epochs.
        """
        index = make_backend(name)
        points = cloud(40, seed=22)
        index.insert_many(points)
        stats = index.stats
        tick = index.new_tick()
        center = points[0][1]
        first = index.ball_unvisited(center, EPS, tick)
        assert len(first) > 1
        before = stats.epoch_prunes
        index.ball_unvisited(center, EPS, tick)
        assert stats.epoch_prunes >= before + len(first)
