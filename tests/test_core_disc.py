"""Unit tests for the DISC facade and its window state."""

import pytest

from repro.common.config import ClusteringParams
from repro.common.errors import StreamOrderError
from repro.common.points import StreamPoint
from repro.common.snapshot import Category
from repro.core.disc import DISC
from repro.core.state import WindowState
from repro.core.store import DELETED, NO_ID
from repro.index.linear import LinearScanIndex


def sp(pid, x, y):
    return StreamPoint(pid, (float(x), float(y)), float(pid))


def blob(start_id, cx, cy, n=6, gap=0.3):
    return [sp(start_id + i, cx + gap * (i % 3), cy + gap * (i // 3)) for i in range(n)]


class TestFacade:
    def test_len_tracks_window(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance(blob(0, 0, 0), ())
        assert len(disc) == 6
        disc.advance((), blob(0, 0, 0)[:2])
        assert len(disc) == 4

    def test_snapshot_and_labels_agree(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance(blob(0, 0, 0), ())
        snapshot = disc.snapshot()
        labels = disc.labels()
        for pid, cid in labels.items():
            assert snapshot.label_of(pid) == cid

    def test_repr(self):
        disc = DISC(eps=1.0, tau=3, multi_starter=False)
        assert "msbfs=False" in repr(disc)
        assert "eps=1.0" in repr(disc)

    def test_custom_index_instance(self):
        index = LinearScanIndex()
        disc = DISC(eps=1.0, tau=3, index=index)
        disc.advance(blob(0, 0, 0), ())
        assert disc.index is index
        assert disc.snapshot().num_clusters == 1

    def test_stats_exposed(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance(blob(0, 0, 0), ())
        assert disc.stats.range_searches > 0

    def test_invalid_params_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DISC(eps=-1.0, tau=3)

    def test_empty_advance_is_noop(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance(blob(0, 0, 0), ())
        before = disc.labels()
        summary = disc.advance((), ())
        assert summary.events == []
        assert disc.labels() == before

    def test_delete_unknown_rejected(self):
        disc = DISC(eps=1.0, tau=3)
        with pytest.raises(StreamOrderError):
            disc.advance((), [sp(5, 0, 0)])

    def test_insert_duplicate_rejected(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance([sp(1, 0, 0)], ())
        with pytest.raises(StreamOrderError):
            disc.advance([sp(1, 2, 2)], ())

    def test_reinsert_after_delete_allowed(self):
        disc = DISC(eps=1.0, tau=3)
        disc.advance([sp(1, 0, 0)], ())
        disc.advance((), [sp(1, 0, 0)])
        disc.advance([sp(1, 2, 2)], ())
        assert len(disc) == 1

    def test_tau_one_all_points_are_singleton_cores(self):
        disc = DISC(eps=0.1, tau=1)
        disc.advance([sp(1, 0, 0), sp(2, 5, 5)], ())
        snapshot = disc.snapshot()
        assert snapshot.num_clusters == 2
        assert snapshot.count(Category.NOISE) == 0

    def test_high_dim_points(self):
        disc = DISC(eps=1.0, tau=2)
        pts = [
            StreamPoint(i, (0.1 * i, 0.0, 0.0, 0.0), float(i)) for i in range(5)
        ]
        disc.advance(pts, ())
        assert disc.snapshot().num_clusters == 1


def core_and_border():
    """A state holding core 1 (with a cluster id) and border 2 anchored to it."""
    state = WindowState(ClusteringParams(1.0, 3))
    store = state.store
    core, border = store.bulk_insert([1, 2], [(0.0, 0.0), (0.5, 0.0)], [0.0, 0.0])
    store.n_eps[core] = 3
    store.cid[core] = state.cids.make()
    store.n_eps[border] = 2
    store.c_core[border] = 1
    store.anchor[border] = 1
    return state, border


class TestWindowState:
    def test_category_of(self):
        state, border = core_and_border()
        snapshot = state.snapshot()
        assert snapshot.category_of(1) is Category.CORE
        assert snapshot.category_of(2) is Category.BORDER
        assert snapshot.label_of(2) == snapshot.label_of(1)
        state.store.c_core[border] = 0
        assert state.snapshot().category_of(2) is Category.NOISE

    def test_live_records_skip_deleted(self):
        state, border = core_and_border()
        state.store.flags[border] |= DELETED
        assert state.snapshot().categories == {1: Category.CORE}


class TestBorderInvariants:
    def test_border_anchor_always_core(self):
        # Drive a few strides and check the internal anchor invariant.
        import random

        rng = random.Random(5)
        disc = DISC(eps=0.7, tau=4)
        alive = []
        next_pid = 0
        for _ in range(10):
            batch = []
            for _ in range(30):
                coords = (rng.gauss(0, 1.5), rng.gauss(0, 1.5))
                batch.append(StreamPoint(next_pid, coords, float(next_pid)))
                next_pid += 1
            out = alive[:10] if len(alive) > 60 else []
            alive = alive[len(out):] + batch
            disc.advance(batch, out)
            store = disc.state.store
            slots = store.live_slots()
            core = store.n_eps[slots] >= 4
            assert (store.cid[slots[core]] != NO_ID).all()
            border = ~core & (store.c_core[slots] > 0)
            anchors = store.slots_of(store.anchor[slots[border]].tolist())
            assert (store.n_eps[anchors] >= 4).all()
            assert not (store.flags[anchors] & DELETED).any()
