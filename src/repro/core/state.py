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
from repro.common.snapshot import Category, Clustering
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

    def compact_cids(self) -> int:
        """Rebuild the cluster-id forest keeping only live roots.

        Every emerge/split mints a fresh id and every merge leaves a
        redirection chain behind, so over a long stream the disjoint set
        grows without bound even while the window stays small. Compaction
        resolves every core's id to its root and drops everything else.
        Returns the number of forest entries after compaction.
        """
        fresh = DisjointSet()
        live_roots: set[int] = set()
        store = self.store
        # One vectorized pass: find the root of each *distinct* live id, then
        # remap the whole cid column through the unique-inverse.
        slots = store.live_slots()
        if len(slots):
            mask = (store.cid[slots] != NO_ID) & ((store.flags[slots] & DELETED) == 0)
            slots = slots[mask]
        if len(slots):
            uniq, inverse = np.unique(store.cid[slots], return_inverse=True)
            roots = np.fromiter(
                (self.cids.find(int(c)) for c in uniq),
                dtype=np.int64,
                count=len(uniq),
            )
            store.cid[slots] = roots[inverse]
            live_roots.update(roots.tolist())
        for root in live_roots:
            fresh.find(root)  # registers the id as its own singleton
        # Never reuse an id: carry the counter forward.
        fresh._next_id = max(self.cids._next_id, fresh._next_id)
        self.cids = fresh
        return len(fresh)

    def snapshot(self) -> Clustering:
        """Freeze the current labels into a :class:`Clustering`.

        Column-sliced: category masks over the live rows plus one
        union-find resolution per distinct raw cluster id.
        """
        store = self.store
        tau = self.params.tau
        slots = store.live_slots()
        if len(slots):
            slots = slots[(store.flags[slots] & DELETED) == 0]
        if not len(slots):
            return Clustering({}, {})
        pids = store.pid[slots].tolist()
        core_mask = store.n_eps[slots] >= tau
        border_mask = ~core_mask & (store.c_core[slots] > 0)

        # Resolve roots once per distinct raw id, not once per point.
        def resolve(raw_cids: np.ndarray) -> list[int]:
            if not len(raw_cids):
                return []
            uniq, inverse = np.unique(raw_cids, return_inverse=True)
            roots = np.fromiter(
                (self.cids.find(int(c)) for c in uniq),
                dtype=np.int64,
                count=len(uniq),
            )
            return roots[inverse].tolist()

        core_slots = slots[core_mask]
        core_raw = store.cid[core_slots]
        assert not np.any(core_raw == NO_ID), "core without a cluster id"
        core_pids = store.pid[core_slots].tolist()
        core_labels = resolve(core_raw)

        border_slots = slots[border_mask]
        border_anchors = store.anchor[border_slots]
        assert not np.any(border_anchors == NO_ID), "border without an anchor"
        anchor_slots = store.slots_of(border_anchors.tolist())
        border_pids = store.pid[border_slots].tolist()
        border_labels = resolve(store.cid[anchor_slots])

        labels = dict(zip(core_pids, core_labels))
        labels.update(zip(border_pids, border_labels))
        categories = {
            pid: (
                Category.CORE
                if is_core
                else (Category.BORDER if is_border else Category.NOISE)
            )
            for pid, is_core, is_border in zip(
                pids, core_mask.tolist(), border_mask.tolist()
            )
        }
        return Clustering(labels, categories)
