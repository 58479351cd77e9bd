"""Columnar (struct-of-arrays) storage for per-point window state.

:class:`PointStore` keeps DISC's per-point bookkeeping in a struct-of-arrays
arena: one numpy column per field, grown in fixed-size slabs, with a
free-list recycling slots on expiry so a steady-state stream never
reallocates. The COLLECT/CLUSTER hot paths operate on whole index arrays
(``np.add.at`` over every neighbour of a stride at once) instead of touching
points one by one.

Layout (one row per resident point):

====== ========= =====================================================
column dtype     meaning
====== ========= =====================================================
pid    int64     stream point id (also the key of the pid -> slot map)
coords float64xd point coordinates (d fixed by the first insert)
time   float64   stream timestamp
n_eps  int64     epsilon-neighbour count, self included
c_core int64     current-core neighbours, self excluded
cid    int64     raw cluster id; ``-1`` encodes "no id" (None)
anchor int64     anchoring core pid for borders; ``-1`` encodes None
flags  uint8     bitfield: ``WAS_CORE`` (bit 0), ``DELETED`` (bit 1)
====== ========= =====================================================

Core status is *derived* (``n_eps >= tau``), never stored. See DESIGN.md
§3.3 and docs/performance.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.common.counters import CounterGroup

#: flags bit: the point was a core at the end of the previous stride.
WAS_CORE = np.uint8(1)
#: flags bit: the point exited the window (ex-cores linger until CLUSTER ends).
DELETED = np.uint8(2)

#: Rows added per slab. Growth doubles in slab units, so the arena reaches
#: any window size in O(log n) reallocations and steady state in none.
SLAB_SLOTS = 1024

#: Sentinel for "no cluster id" / "no anchor" in the int64 columns.
NO_ID = -1


@dataclass
class StoreGauges(CounterGroup):
    """Arena occupancy at one instant (gauges, not per-stride deltas).

    The fields are the ``store`` block of the trace and the Prometheus
    textfile.
    """

    slots: int = 0
    capacity: int = 0
    slabs: int = 0
    free: int = 0
    recycled: int = 0
    high_water: int = 0
    occupancy: float = field(default=0.0, metadata={"maximum": 1})


class PointStore:
    """Struct-of-arrays arena for every point in (or just leaving) the window.

    Slots are recycled through a free-list: expiry pushes a row's slot, the
    next insert pops it, and a pid's slot never changes while the point is
    resident (``pid -> slot`` is stable across other points' expiry — the
    property the batched mutators and any future sharding rely on).

    Args:
        dim: coordinate dimensionality; lazily fixed by the first insert
            when omitted.
    """

    def __init__(self, dim: int | None = None) -> None:
        self.dim = dim
        self.capacity = 0
        self.coords = np.empty((0, dim if dim is not None else 0), dtype=np.float64)
        self.time = np.empty(0, dtype=np.float64)
        self.pid = np.empty(0, dtype=np.int64)
        self.n_eps = np.empty(0, dtype=np.int64)
        self.c_core = np.empty(0, dtype=np.int64)
        self.cid = np.empty(0, dtype=np.int64)
        self.anchor = np.empty(0, dtype=np.int64)
        self.flags = np.empty(0, dtype=np.uint8)
        # pid -> slot; insertion-ordered (Python dict), so iteration follows
        # window arrival order.
        self._slot_of: dict[int, int] = {}
        self._free: list[int] = []
        self.recycled_total = 0
        self.high_water = 0

    # ------------------------------------------------------------------ sizing

    def __len__(self) -> int:
        """Number of resident rows (live points plus lingering ex-cores)."""
        return len(self._slot_of)

    def __contains__(self, pid: int) -> bool:
        return pid in self._slot_of

    @property
    def slabs(self) -> int:
        return self.capacity // SLAB_SLOTS

    def counters(self) -> StoreGauges:
        """Occupancy gauges for the observability layer."""
        in_use = len(self._slot_of)
        return StoreGauges(
            slots=in_use,
            capacity=self.capacity,
            slabs=self.slabs,
            free=len(self._free),
            recycled=self.recycled_total,
            high_water=self.high_water,
            occupancy=(in_use / self.capacity) if self.capacity else 0.0,
        )

    def nbytes(self) -> int:
        """Resident bytes of all columns (the arena's memory footprint)."""
        return sum(
            col.nbytes
            for col in (
                self.coords,
                self.time,
                self.pid,
                self.n_eps,
                self.c_core,
                self.cid,
                self.anchor,
                self.flags,
            )
        )

    def _grow(self, need: int) -> None:
        """Extend every column so at least ``need`` free slots exist."""
        shortfall = need - (self.capacity - self.high_water + len(self._free))
        if shortfall <= 0:
            return
        add = max(self.capacity, SLAB_SLOTS)
        while add < shortfall:
            add += add
        add = -(-add // SLAB_SLOTS) * SLAB_SLOTS  # round up to whole slabs
        new_cap = self.capacity + add
        dim = self.dim if self.dim is not None else 0
        coords = np.zeros((new_cap, dim), dtype=np.float64)
        coords[: self.capacity] = self.coords
        self.coords = coords
        for name in ("time", "pid", "n_eps", "c_core", "cid", "anchor", "flags"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=old.dtype)
            fresh[: self.capacity] = old
            setattr(self, name, fresh)
        self.capacity = new_cap

    # --------------------------------------------------------------- mutation

    def bulk_insert(
        self,
        pids: Sequence[int],
        coords: Sequence[Sequence[float]],
        times: Sequence[float],
    ) -> np.ndarray:
        """Insert a batch of fresh points; returns their slots (int64).

        New rows start with ``n_eps=1`` (a point is its own
        epsilon-neighbour), ``c_core=0``, no flags, no cluster id and no
        anchor.
        """
        n = len(pids)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self.dim is None:
            self.dim = len(coords[0])
            self.coords = np.empty((self.capacity, self.dim), dtype=np.float64)
        self._grow(n)
        slots = np.empty(n, dtype=np.int64)
        take = min(len(self._free), n)
        for i in range(take):
            slots[i] = self._free.pop()
        if take:
            self.recycled_total += take
        if take < n:
            fresh = np.arange(self.high_water, self.high_water + (n - take))
            slots[take:] = fresh
            self.high_water += n - take
        self.coords[slots] = np.asarray(coords, dtype=np.float64)
        self.time[slots] = np.asarray(times, dtype=np.float64)
        self.pid[slots] = np.asarray(pids, dtype=np.int64)
        self.n_eps[slots] = 1
        self.c_core[slots] = 0
        self.cid[slots] = NO_ID
        self.anchor[slots] = NO_ID
        self.flags[slots] = 0
        slot_of = self._slot_of
        for pid, slot in zip(pids, slots.tolist()):
            slot_of[pid] = slot
        return slots

    def insert(self, pid: int, coords: Sequence[float], time: float = 0.0) -> int:
        """Insert one point; returns its slot."""
        return int(self.bulk_insert([pid], [tuple(coords)], [time])[0])

    def mark_deleted(self, slots: np.ndarray) -> None:
        """Flag rows as exited and zero their counts (rows stay resident)."""
        if len(slots) == 0:
            return
        self.flags[slots] |= DELETED
        self.n_eps[slots] = 0
        self.c_core[slots] = 0

    def free(self, pids: Iterable[int]) -> None:
        """Drop rows entirely, recycling their slots through the free-list."""
        slot_of = self._slot_of
        free = self._free
        for pid in pids:
            free.append(slot_of.pop(pid))

    # ---------------------------------------------------------------- lookups

    def slot_of(self, pid: int) -> int:
        """Slot of a resident pid (KeyError when absent)."""
        return self._slot_of[pid]

    def get_slot(self, pid: int) -> int | None:
        return self._slot_of.get(pid)

    def slots_of(self, pids: Iterable[int]) -> np.ndarray:
        """Translate resident pids to a slot array (KeyError on a miss)."""
        slot_of = self._slot_of
        return np.fromiter((slot_of[p] for p in pids), dtype=np.int64)

    def live_slots(self) -> np.ndarray:
        """Slots of every resident row, in insertion order.

        "Live" here means resident; during a stride the result can include
        rows carrying the ``DELETED`` flag (lingering exited ex-cores) —
        mask with :data:`DELETED` when that matters.
        """
        return np.fromiter(self._slot_of.values(), dtype=np.int64, count=len(self._slot_of))

    def iter_pids(self) -> Iterator[int]:
        """Resident pids in insertion order."""
        return iter(self._slot_of)

    # ------------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Internal consistency of the slot map, free-list, and columns."""
        used = set(self._slot_of.values())
        assert len(used) == len(self._slot_of), "duplicate slots in the pid map"
        free = set(self._free)
        assert len(free) == len(self._free), "duplicate slots in the free-list"
        assert not (used & free), "slot both in use and free"
        assert all(0 <= s < self.high_water for s in used | free)
        assert self.high_water <= self.capacity
        for pid, slot in self._slot_of.items():
            assert int(self.pid[slot]) == pid, f"pid column out of sync at {slot}"
