"""Unit tests for the columnar PointStore arena."""

import numpy as np
import pytest

from repro.core.store import (
    DELETED,
    NO_ID,
    SLAB_SLOTS,
    WAS_CORE,
    PointStore,
)


def fill(store, n, start=0):
    pids = list(range(start, start + n))
    coords = [(float(p), 0.0) for p in pids]
    times = [float(p) for p in pids]
    return store.bulk_insert(pids, coords, times)


class TestSlabGrowth:
    def test_first_insert_allocates_one_slab(self):
        store = PointStore()
        fill(store, 1)
        assert store.capacity == SLAB_SLOTS
        assert store.slabs == 1
        store.check_invariants()

    def test_growth_is_in_whole_slabs(self):
        store = PointStore()
        fill(store, 3 * SLAB_SLOTS + 5)
        assert store.capacity % SLAB_SLOTS == 0
        assert store.capacity >= 3 * SLAB_SLOTS + 5
        assert len(store) == 3 * SLAB_SLOTS + 5
        store.check_invariants()

    def test_growth_preserves_existing_rows(self):
        store = PointStore()
        fill(store, 10)
        store.n_eps[store.slot_of(3)] = 7
        store.cid[store.slot_of(4)] = 42
        fill(store, 2 * SLAB_SLOTS, start=10)  # forces reallocation
        assert int(store.n_eps[store.slot_of(3)]) == 7
        assert int(store.cid[store.slot_of(4)]) == 42
        assert store.coords[store.slot_of(5)].tolist() == [5.0, 0.0]
        store.check_invariants()

    def test_steady_state_never_grows(self):
        store = PointStore()
        fill(store, 100)
        cap = store.capacity
        for round_ in range(1, 20):
            store.free(range((round_ - 1) * 100, round_ * 100))
            fill(store, 100, start=round_ * 100)
        assert store.capacity == cap
        store.check_invariants()


class TestFreeListRecycling:
    def test_freed_slots_are_reused(self):
        store = PointStore()
        fill(store, 8)
        freed = {store.slot_of(p) for p in (2, 5)}
        store.free([2, 5])
        new_slots = set(fill(store, 2, start=100).tolist())
        assert new_slots == freed
        assert store.recycled_total == 2
        store.check_invariants()

    def test_fresh_rows_are_reset_after_recycling(self):
        store = PointStore()
        fill(store, 4)
        slot = store.slot_of(1)
        store.n_eps[slot] = 9
        store.cid[slot] = 3
        store.anchor[slot] = 0
        store.flags[slot] |= WAS_CORE
        store.free([1])
        fill(store, 1, start=50)
        slot = store.slot_of(50)
        row = (store.n_eps, store.c_core, store.cid, store.anchor, store.flags)
        assert [int(col[slot]) for col in row] == [1, 0, NO_ID, NO_ID, 0]

    def test_counters_shape(self):
        store = PointStore()
        fill(store, 6)
        store.free([0])
        counters = store.counters()
        assert tuple(counters) == (
            "slots",
            "capacity",
            "slabs",
            "free",
            "recycled",
            "high_water",
            "occupancy",
        )
        assert counters["slots"] == 5
        assert counters["free"] == 1
        assert counters["capacity"] == SLAB_SLOTS
        assert counters["slabs"] == 1
        assert counters["high_water"] == 6
        assert 0.0 <= counters["occupancy"] <= 1.0
        assert store.nbytes() > 0


class TestSlotStability:
    def test_pid_slot_mapping_survives_other_expiries(self):
        """A resident point's slot never moves, whatever happens around it."""
        store = PointStore()
        fill(store, 50)
        pinned = {p: store.slot_of(p) for p in (10, 25, 49)}
        store.free([p for p in range(50) if p not in pinned])
        fill(store, 47, start=1000)  # recycle every freed slot
        for pid, slot in pinned.items():
            assert store.slot_of(pid) == slot
            assert int(store.pid[slot]) == pid
        store.check_invariants()

    def test_insertion_order_iteration(self):
        store = PointStore()
        fill(store, 5)
        store.free([1, 3])
        fill(store, 2, start=7)
        assert list(store.iter_pids()) == [0, 2, 4, 7, 8]
        assert store.pid[store.live_slots()].tolist() == [0, 2, 4, 7, 8]

    def test_mark_deleted_keeps_rows_resident(self):
        store = PointStore()
        slots = fill(store, 3)
        store.mark_deleted(slots[:1])
        assert 0 in store
        assert int(store.n_eps[slots[0]]) == 0
        assert bool(store.flags[slots[0]] & DELETED)


class TestInvariants:
    def test_flags_stay_a_bitfield(self):
        store = PointStore()
        slots = fill(store, 2)
        store.flags[slots[0]] |= WAS_CORE
        store.mark_deleted(slots[:1])
        assert bool(store.flags[slots[0]] & WAS_CORE)
        store.flags[slots[0]] &= ~DELETED
        assert store.flags[slots[0]] == WAS_CORE

    def test_slots_of_batches(self):
        store = PointStore()
        fill(store, 6)
        got = store.slots_of([4, 0, 2])
        assert got.dtype == np.int64
        assert got.tolist() == [store.slot_of(4), store.slot_of(0), store.slot_of(2)]
        with pytest.raises(KeyError):
            store.slots_of([99])
