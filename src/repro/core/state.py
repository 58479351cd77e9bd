"""Per-point window state shared by the COLLECT and CLUSTER steps.

Each point in the current window carries exactly the bookkeeping the paper
requires: its epsilon-neighbour count ``n_eps`` (self included), the derived
core status plus the *previous* window's core status (``was_core``), its
cluster id for cores, and the border machinery — ``c_core`` (how many current
cores lie within epsilon) and ``anchor`` (one such core, through which the
border's cluster id is resolved). See DESIGN.md §3.3.

The fields live in the columns of a struct-of-arrays
:class:`~repro.core.store.PointStore` arena; the COLLECT/CLUSTER hot paths
read and write them with batched column operations.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.common.config import ClusteringParams
from repro.common.disjointset import DisjointSet
from repro.common.snapshot import BORDER_CODE, CORE_CODE, NOISE_CODE, Clustering
from repro.core.store import DELETED, NO_ID, PointStore


class WindowState:
    """The per-point columns plus the cluster-id disjoint set.

    The spatial index lives next to this object inside
    :class:`~repro.core.disc.DISC`; this class only owns the point state so
    the COLLECT/CLUSTER functions can be tested against it in isolation.

    Args:
        params: epsilon/tau (and backend) configuration.
    """

    def __init__(self, params: ClusteringParams) -> None:
        self.params = params
        self.store = PointStore()
        self.cids = DisjointSet()
        # Non-core points whose border anchor was invalidated this stride and
        # needs one repair range search at the end of CLUSTER.
        self.repair: set[int] = set()

    def set_cids(self, pids: Iterable[int], cid: int | None) -> None:
        """Assign one raw cluster id to a batch of points."""
        store = self.store
        store.cid[store.slots_of(pids)] = NO_ID if cid is None else cid

    def _roots(self, raw: np.ndarray) -> np.ndarray:
        """Root cluster id of each raw id: one ``find`` per distinct id."""
        uniq, inverse = np.unique(raw, return_inverse=True)
        roots = np.fromiter(
            (self.cids.find(int(c)) for c in uniq), dtype=np.int64, count=len(uniq)
        )
        return roots[inverse]

    def compact_cids(self) -> int:
        """Rebuild the cluster-id forest keeping only live roots.

        Every emerge/split mints a fresh id and every merge leaves a
        redirection chain behind, so over a long stream the disjoint set
        grows without bound even while the window stays small. Compaction
        resolves every core's id to its root and drops everything else.
        Returns the number of forest entries after compaction.
        """
        fresh = DisjointSet()
        store = self.store
        slots = store.live_slots()
        slots = slots[(store.cid[slots] != NO_ID) & ((store.flags[slots] & DELETED) == 0)]
        store.cid[slots] = self._roots(store.cid[slots])
        for root in set(store.cid[slots].tolist()):
            fresh.find(root)  # registers the id as its own singleton
        # Never reuse an id: carry the counter forward.
        fresh._next_id = max(self.cids._next_id, fresh._next_id)
        self.cids = fresh
        return len(fresh)

    def snapshot(self) -> Clustering:
        """Freeze the current labels into a :class:`Clustering`.

        Column-sliced: one argsort of the live rows by pid, category masks
        over them, and one union-find resolution per distinct raw cluster
        id. Every column is a fresh array, never a view of the arena.
        """
        store = self.store
        slots = store.live_slots()
        slots = slots[(store.flags[slots] & DELETED) == 0]
        pid = store.pid[slots]
        order = np.argsort(pid)
        slots, pid = slots[order], pid[order]
        core = store.n_eps[slots] >= self.params.tau
        border = ~core & (store.c_core[slots] > 0)

        raw = np.empty(len(slots), dtype=np.int64)
        raw[core] = store.cid[slots[core]]
        assert not np.any(raw[core] == NO_ID), "core without a cluster id"
        anchors = store.anchor[slots[border]]
        assert not np.any(anchors == NO_ID), "border without an anchor"
        raw[border] = store.cid[store.slots_of(anchors.tolist())]
        label = np.full(len(slots), Clustering.NOISE_ID, dtype=np.int64)
        clustered = core | border
        label[clustered] = self._roots(raw[clustered])
        cat = np.full(len(slots), NOISE_CODE, dtype=np.int8)
        cat[border] = BORDER_CODE
        cat[core] = CORE_CODE
        return Clustering.from_columns(pid, label, cat)
