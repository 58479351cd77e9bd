"""Failure injection: a rejected stride must leave state untouched."""

import pytest

from repro.common.errors import StreamOrderError
from repro.common.points import StreamPoint
from repro.core.disc import DISC
from repro.index.stats import IndexStats
from tests.conftest import clustered_stream, point_field


def sp(pid, x, y=0.0):
    return StreamPoint(pid, (float(x), float(y)), float(pid))


def state_fingerprint(disc):
    snapshot = disc.snapshot()
    store = disc.state.store
    slots = store.live_slots()
    return (
        dict(snapshot.labels),
        {pid: cat for pid, cat in snapshot.categories.items()},
        len(disc.index),
        list(
            zip(
                store.pid[slots].tolist(),
                store.n_eps[slots].tolist(),
                store.c_core[slots].tolist(),
            )
        ),
    )


class TestAtomicAdvance:
    def setup_disc(self):
        disc = DISC(0.7, 4)
        disc.advance(clustered_stream(1, 100), ())
        return disc

    def test_unknown_delete_leaves_state_intact(self):
        disc = self.setup_disc()
        before = state_fingerprint(disc)
        batch = clustered_stream(2, 10, start_id=1000)
        with pytest.raises(StreamOrderError):
            disc.advance(batch, [sp(99999, 0)])
        assert state_fingerprint(disc) == before
        # The rejected arrivals were not half-applied either.
        assert 1000 not in disc.state.store

    def test_duplicate_insert_leaves_state_intact(self):
        disc = self.setup_disc()
        before = state_fingerprint(disc)
        with pytest.raises(StreamOrderError):
            disc.advance([sp(0, 5.0)], ())  # pid 0 already in the window
        assert state_fingerprint(disc) == before

    def test_double_delete_in_one_stride_rejected(self):
        disc = self.setup_disc()
        before = state_fingerprint(disc)
        victim = sp(0, *point_field(disc.state, "coords", 0))
        with pytest.raises(StreamOrderError):
            disc.advance((), [victim, victim])
        assert state_fingerprint(disc) == before

    def test_double_insert_in_one_stride_rejected(self):
        disc = self.setup_disc()
        before = state_fingerprint(disc)
        with pytest.raises(StreamOrderError):
            disc.advance([sp(500, 0), sp(500, 1)], ())
        assert state_fingerprint(disc) == before

    def test_recovery_after_rejection(self):
        disc = self.setup_disc()
        with pytest.raises(StreamOrderError):
            disc.advance((), [sp(424242, 0)])
        # The clusterer keeps working normally afterwards.
        batch = clustered_stream(3, 25, start_id=2000)
        disc.advance(batch, ())
        assert len(disc) == 125


class TestIndexStats:
    def test_reset(self):
        stats = IndexStats(range_searches=5, inserts=2)
        stats.reset()
        assert stats.range_searches == 0
        assert stats.inserts == 0

    def test_snapshot_is_independent(self):
        stats = IndexStats(range_searches=5)
        snap = stats.snapshot()
        stats.range_searches = 10
        assert snap.range_searches == 5

    def test_subtraction(self):
        after = IndexStats(range_searches=10, entries_scanned=100, deletes=4)
        before = IndexStats(range_searches=3, entries_scanned=40, deletes=1)
        diff = after - before
        assert diff.range_searches == 7
        assert diff.entries_scanned == 60
        assert diff.deletes == 3

    def test_shared_stats_across_indexes(self):
        from repro.index.rtree import RTree

        shared = IndexStats()
        a = RTree(stats=shared)
        b = RTree(stats=shared)
        a.insert(1, (0.0, 0.0))
        b.insert(2, (1.0, 1.0))
        a.ball((0.0, 0.0), 1.0)
        b.ball((0.0, 0.0), 1.0)
        assert shared.inserts == 2
        assert shared.range_searches == 2
