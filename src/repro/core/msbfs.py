"""Multi-Starter BFS — the paper's Algorithm 3 — plus the classic fallback.

Given the minimal bonding cores of an ex-core, DISC must decide whether they
are density-connected in the *current* core graph (vertices = current cores,
edges = epsilon-neighbour pairs), where the graph is never materialised:
every expansion is a range search against the spatial index.

:func:`check_connectivity` implements both strategies behind one interface:

- ``multi_starter=True`` (MS-BFS): one BFS per seed, advanced round-robin.
  When two searches meet they merge queues and continue as one. The check
  stops as soon as a single search remains — in the common no-split case that
  happens long before the cluster is exhausted.
- ``multi_starter=False`` (classic): one BFS at a time, run to exhaustion of
  its component before the next unreached seed starts. This is what a
  straightforward IncDBSCAN-style implementation does and is the "neither /
  epoch-only" arm of the paper's Figure 8 ablation.

Both run only when the seeds need them. A check first tests the seeds
against each other: when they are live cores whose own eps-graph is
connected, direct adjacency already proves density-connection, so the check
answers "connected" with no tick, no range search and no expansion. This is
the cheap, stateless form of the spanning-forest connectivity of Shin et
al.'s dynamic DBSCAN. Otherwise the chosen strategy runs unchanged from the
original seeds, so which split component is exhausted first — and which
fresh cluster ids are handed out — does not depend on the certificate.

Epoch-based probing (``epoch_probing=True``) is orthogonal: expansions use
:meth:`ball_unvisited` with the current tick, so regions already covered are
pruned inside the index. It needs visit epochs inside the index (the R-tree
and the linear scan declare ``supports_epochs``); any other index is probed
with plain balls. Marking discipline (see ``repro.index.rtree``):
non-core points are marked when first returned (they are never expanded);
core vertices are marked only when *expanded*, so converging searches still
see each other's frontier cores and can merge.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.common.disjointset import DisjointSet
from repro.common.distance import within_eps_many
from repro.core.state import WindowState
from repro.core.store import DELETED


@dataclass
class ConnectivityResult:
    """Outcome of a density-connectedness check over a seed set.

    Attributes:
        num_components: connected components of the core graph touched by the
            seeds (0 when the seed set was empty).
        exhausted: fully traversed components, as lists of core pids; on a
            split these receive fresh cluster ids.
        survivor: cores visited by the search that was still running when the
            check stopped early; its component keeps the old cluster id and
            may be only partially traversed.
    """

    num_components: int = 0
    exhausted: list[list[int]] = field(default_factory=list)
    survivor: list[int] = field(default_factory=list)

    @property
    def connected(self) -> bool:
        return self.num_components <= 1


def check_connectivity(
    index,
    state: WindowState,
    seeds: Iterable[int],
    *,
    multi_starter: bool = True,
    epoch_probing: bool = True,
    on_border: Callable[[int, int], None] | None = None,
    trace=None,
) -> ConnectivityResult:
    """Count core-graph components reachable from ``seeds``.

    Args:
        index: spatial index holding every point in the window (plus any
            lingering exited ex-cores, which are skipped as deleted).
        state: window state providing the per-point columns.
        seeds: core pids — the minimal bonding cores ``M^-(p)``.
        multi_starter: use MS-BFS (True) or sequential BFS (False).
        epoch_probing: use epoch-filtered index probes when ``index``
            supports them.
        on_border: optional callback ``(border_pid, expanding_core_pid)``
            invoked for every non-core point seen during expansion; DISC uses
            it to refresh border anchors (Section V).
        trace: optional :class:`~repro.observability.trace.StrideTrace`;
            when present, certified-check / expansion / queue-merge /
            early-exit counters are accumulated onto it.

    Returns:
        A :class:`ConnectivityResult`; traversal touches only the components
        containing seeds and stops as early as the strategy allows. A check
        the seeds certify reports them as the survivor and calls no
        ``on_border``; the borders it would have re-anchored keep their
        anchors or wait for anchor repair.
    """
    seed_list = list(dict.fromkeys(seeds))
    if not seed_list:
        return ConnectivityResult()

    tau = state.params.tau
    eps = state.params.eps
    store = state.store
    if _seeds_certify(store, seed_list, eps, tau):
        if trace is not None:
            trace.counters.certified_checks += 1
        return ConnectivityResult(num_components=1, survivor=seed_list)
    flags_col = store.flags
    n_eps_col = store.n_eps
    slot_of = store._slot_of

    epochs = epoch_probing and index.supports_epochs
    tick = index.new_tick() if epochs else None

    def should_mark(pid: int) -> bool:
        # Mark non-cores at first sight; cores only at expansion (see above).
        slot = slot_of[pid]
        return bool(flags_col[slot] & DELETED) or n_eps_col[slot] < tau

    groups = DisjointSet()
    owner: dict[int, int] = {}
    queues: dict[int, deque[int]] = {}
    members: dict[int, list[int]] = {}
    for seed in seed_list:
        gid = groups.make()
        owner[seed] = gid
        queues[gid] = deque([seed])
        members[gid] = [seed]

    alive: set[int] = set(queues)
    rotation: deque[int] = deque(queues)
    expanded: set[int] = set()
    # Exhausted components keyed by their group root. Kept addressable (not a
    # flat list) because a later expansion can touch an "exhausted" component
    # — e.g. a non-core seed whose group starts expanding after a neighbouring
    # component already ran dry — which proves the two were one component all
    # along. Such groups are revived instead of crashing the merge
    # bookkeeping on their missing queue.
    dead: dict[int, list[int]] = {}
    dead_order: list[int] = []

    def retire(root: int) -> None:
        alive.discard(root)
        dead[root] = members.pop(root)
        dead_order.append(root)
        del queues[root]

    def merge_into(root: int, qid: int) -> int:
        """Fold ``qid``'s group into ``root``'s; returns the merged root."""
        other = owner.get(qid)
        if other is None:
            owner[qid] = root
            members[root].append(qid)
            queues[root].append(qid)
            return root
        other_root = groups.find(other)
        root_now = groups.find(root)
        if other_root != root_now:
            if other_root in dead:
                # Contact with an exhausted group proves it never was a
                # separate component: bring it back before the union so
                # queue/member bookkeeping (and the final component count)
                # stay consistent.
                members[other_root] = dead.pop(other_root)
                dead_order.remove(other_root)
                queues[other_root] = deque()
                alive.add(other_root)
            winner = groups.union(other_root, root_now)
            loser = other_root if winner == root_now else root_now
            queues[winner].extend(queues.pop(loser))
            members[winner].extend(members.pop(loser))
            alive.discard(loser)
            root = winner
            if trace is not None:
                trace.counters.msbfs_queue_merges += 1
        return root

    def expand(pid: int, group_root: int) -> int:
        """Expand one core vertex; returns the (possibly merged) group root."""
        if trace is not None:
            trace.counters.msbfs_expansions += 1
        root = group_root
        # Scalar column reads per neighbour in exact ball order — the balls
        # here are small enough that vectorized masking loses to two array
        # lookups per point.
        coords = store.coords[slot_of[pid]].tolist()
        if epochs:
            qids = [
                qid for qid, _ in index.ball_unvisited(coords, eps, tick, should_mark)
            ]
            index.mark(pid, tick)
        else:
            qids = index.ball_pids(coords, eps).tolist()
        for qid in qids:
            if qid == pid:
                continue
            slot = slot_of[qid]
            if flags_col[slot] & DELETED:
                continue
            if n_eps_col[slot] >= tau:
                root = merge_into(root, qid)
            elif on_border is not None:
                on_border(qid, pid)
        return root

    while len(alive) > 1:
        if not rotation:
            # Starvation guard: every live group must stay reachable from
            # the rotation even if its original entry was consumed as stale.
            rotation.extend(sorted(alive))
        gid = rotation.popleft()
        root = groups.find(gid)
        if root != gid or root not in alive:
            continue  # stale rotation entry: this group merged into another
        queue = queues[root]
        # Skip entries already expanded under a merged group.
        while queue and queue[0] in expanded:
            queue.popleft()
        if not queue:
            retire(root)
            continue
        if multi_starter:
            pid = queue.popleft()
            expanded.add(pid)
            root = expand(pid, root)
            rotation.append(root)
        else:
            # Classic mode: run this search to exhaustion (or early exit).
            while len(alive) > 1:
                while queue and queue[0] in expanded:
                    queue.popleft()
                if not queue:
                    retire(root)
                    break
                pid = queue.popleft()
                expanded.add(pid)
                new_root = expand(pid, root)
                if new_root != root:
                    root = new_root
                    queue = queues[root]

    survivor_root = next(iter(alive))
    survivor = members.pop(survivor_root)
    if trace is not None and any(
        pid not in expanded for pid in queues[survivor_root]
    ):
        trace.counters.msbfs_early_exits += 1
    return ConnectivityResult(
        num_components=len(dead_order) + 1,
        exhausted=[dead[root] for root in dead_order],
        survivor=survivor,
    )


def _seeds_certify(store, seeds: list[int], eps: float, tau: int) -> bool:
    """Whether the seeds are live cores whose own eps-graph is connected.

    One :func:`within_eps_many` call over the seeds' arena coordinates gives
    their adjacency matrix (reflexive, since every point is within eps of
    itself); the reached set then grows one hop per round until it covers
    every seed or stops growing.
    """
    slots = store.slots_of(seeds)
    # An exited row's n_eps is zeroed (PointStore.mark_deleted) and tau >= 1,
    # so this one test also rules out DELETED seeds.
    if store.n_eps[slots].min() < tau:
        return False
    coords = store.coords[slots]
    adjacent = within_eps_many(coords[:, None], coords[None, :], eps)
    reached = adjacent[0]
    while not reached.all():
        grown = adjacent[reached].any(axis=0)
        if np.array_equal(grown, reached):
            return False
        reached = grown
    return True
