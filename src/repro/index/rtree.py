"""An in-memory R-tree with epoch-based probing (paper Section IV-B).

This is a Guttman R-tree over points (least-enlargement choose-leaf,
condense-tree deletion) whose overflowing nodes split by sorting their
children along the node's widest side and cutting them in half. It is
extended with *epochs of a visiting history*: every leaf entry and every
node carries an epoch counter. A range search bound to the current *tick*
skips any entry or subtree whose epoch already equals the tick, and marks
what it returns — so repeated, overlapping range searches issued by one
MS-BFS instance never re-report a point, and fully-visited subtrees are pruned
wholesale without any reset pass between MS-BFS instances (Algorithm 4).

Two search flavours are exposed:

- :meth:`RTree.ball` — plain range search, returns everything in the ball.
- :meth:`RTree.ball_unvisited` — epoch-filtered search for a given tick.

Epoch semantics chosen for this reproduction (the paper leaves the precise
interaction between Algorithm 3 and Algorithm 4 implicit): an entry is marked
*when it is returned* by an epoch-filtered search. MS-BFS (Algorithm 3) marks
a vertex's surroundings only when the vertex is *expanded*, so two searches
approaching each other still see each other's frontier and can merge; see
``repro.core.msbfs`` for that side of the contract.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import le

from repro.common.distance import eps_sq_bound
from repro.common.errors import IndexError_
from repro.index.base import NeighborIndex
from repro.index.stats import IndexStats

Coords = tuple[float, ...]
Rect = tuple[Coords, Coords]

# A small fanout keeps every leaf scan and split sort short. Re-measured with
# the sort split on the offline DTG job, fanouts 12 and 16 ran a stride no
# faster than 8 (docs/performance.md), so 8 stays.
DEFAULT_MAX_ENTRIES = 8
DEFAULT_MIN_ENTRIES = 3


class _Entry:
    """A leaf-level entry: one indexed point plus its visit epoch."""

    __slots__ = ("pid", "coords", "epoch")

    def __init__(self, pid: int, coords: Coords) -> None:
        self.pid = pid
        self.coords = coords
        self.epoch = 0


class _Node:
    """An R-tree node; ``children`` holds entries (leaf) or nodes (internal)."""

    __slots__ = ("leaf", "children", "parent", "lows", "highs", "epoch")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.children: list = []
        self.parent: _Node | None = None
        self.lows: Coords = ()
        self.highs: Coords = ()
        self.epoch = 0

    def child_rect(self, child) -> Rect:
        if self.leaf:
            return child.coords, child.coords
        return child.lows, child.highs

    def recompute_rect(self) -> None:
        """Tighten this node's MBR to exactly cover its children."""
        if not self.children:
            self.lows, self.highs = (), ()
            return
        if self.leaf:
            first = self.children[0].coords
            lows = list(first)
            highs = list(first)
            for entry in self.children[1:]:
                for d, x in enumerate(entry.coords):
                    if x < lows[d]:
                        lows[d] = x
                    elif x > highs[d]:
                        highs[d] = x
        else:
            lows = list(self.children[0].lows)
            highs = list(self.children[0].highs)
            for child in self.children[1:]:
                for d, x in enumerate(child.lows):
                    if x < lows[d]:
                        lows[d] = x
                for d, x in enumerate(child.highs):
                    if x > highs[d]:
                        highs[d] = x
        self.lows = tuple(lows)
        self.highs = tuple(highs)


class RTree(NeighborIndex):
    """Dynamic R-tree over points with epoch-based probing.

    Args:
        max_entries: node fanout before a split.
        min_entries: fill below which a non-root node is condensed away.
        stats: optional shared :class:`IndexStats`; a private one is created
            when omitted.
    """

    supports_epochs = True

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int = DEFAULT_MIN_ENTRIES,
        stats: IndexStats | None = None,
    ) -> None:
        if not 2 <= min_entries <= max_entries // 2:
            raise IndexError_(
                f"need 2 <= min_entries <= max_entries/2, got "
                f"min={min_entries}, max={max_entries}"
            )
        self._max = max_entries
        self._min = min_entries
        self._root = _Node(leaf=True)
        self._where: dict[int, _Node] = {}
        self._tick = 0
        self.stats = stats if stats is not None else IndexStats()

    # ------------------------------------------------------------------ dunder

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, pid: int) -> bool:
        return pid in self._where

    def coords_of(self, pid: int) -> Coords:
        """Coordinates of an indexed point."""
        leaf = self._where[pid]
        for entry in leaf.children:
            if entry.pid == pid:
                return entry.coords
        raise IndexError_(f"corrupt index: {pid} missing from its leaf")

    # --------------------------------------------------------------- bulk load

    @classmethod
    def bulk_load(
        cls,
        items: Sequence[tuple[int, Sequence[float]]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int = DEFAULT_MIN_ENTRIES,
        stats: IndexStats | None = None,
    ) -> "RTree":
        """Build a packed R-tree with Sort-Tile-Recursive (STR) loading.

        Produces a tree with near-full nodes and little overlap — much faster
        to build and to query than one grown by repeated insertion. Useful
        for filling a whole window at once before streaming begins.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries, stats=stats)
        tree._bulk_build(items)
        return tree

    def _bulk_build(self, items: Sequence[tuple[int, Sequence[float]]]) -> None:
        """STR-pack ``items`` into this (empty) tree, all or nothing."""
        items = list(items)
        self._check_new(items)
        entries = [_Entry(pid, tuple(coords)) for pid, coords in items]
        if not entries:
            return
        dim = len(entries[0].coords)
        leaves = self._str_pack_entries(entries, dim)
        for leaf in leaves:
            for entry in leaf.children:
                self._where[entry.pid] = leaf
        level: list[_Node] = leaves
        while len(level) > 1:
            level = self._str_pack_nodes(level, dim)
        self._root = level[0]

    def insert_many(self, items) -> None:
        """Index a batch of points, STR-packing when the tree is empty.

        Filling an empty tree (a window prefill, a rebuild) reuses the
        Sort-Tile-Recursive machinery of :meth:`bulk_load` — near-full nodes,
        little overlap, far cheaper than one insertion per point. A non-empty
        tree falls back to ordered insertion. Query results are identical
        either way; only the tree shape differs. A rejected batch leaves the
        tree unchanged on both paths.
        """
        items = list(items)
        if not self._where and len(items) > self._max:
            self._bulk_build(items)
            self.stats.inserts += len(items)
            return
        self._check_new(items)
        for pid, coords in items:
            self.insert(pid, coords)

    def _rebalance_tail(self, pages: list[list]) -> list[list]:
        """Fix up a trailing page smaller than ``min_entries``.

        Merges it into its predecessor when the result still fits in one
        node, otherwise resplits the pair evenly (both halves are legal:
        ``min_entries <= max_entries / 2`` is enforced at construction).
        """
        if len(pages) > 1 and len(pages[-1]) < self._min:
            spill = pages.pop()
            merged = pages.pop() + spill
            if len(merged) <= self._max:
                pages.append(merged)
            else:
                half = len(merged) // 2
                pages.extend([merged[:half], merged[half:]])
        return pages

    def _str_slices(self, items: list, dim: int, key_dim: int) -> list[list]:
        """Recursively tile ``items`` by successive coordinate dimensions."""
        capacity = self._max
        if key_dim >= dim - 1:
            items.sort(key=lambda it: it[0][key_dim])
            pages = [
                items[i : i + capacity] for i in range(0, len(items), capacity)
            ]
            return self._rebalance_tail(pages)
        n_pages = math.ceil(len(items) / capacity)
        per_slab = capacity * math.ceil(
            n_pages ** ((dim - key_dim - 1) / (dim - key_dim))
        )
        items.sort(key=lambda it: it[0][key_dim])
        groups = []
        for i in range(0, len(items), per_slab):
            groups.extend(
                self._str_slices(items[i : i + per_slab], dim, key_dim + 1)
            )
        # A short trailing slab packs into a single underfull page that the
        # per-slab rebalance cannot see; fix it against the previous slab.
        return self._rebalance_tail(groups)

    def _str_pack_entries(self, entries: list[_Entry], dim: int) -> list[_Node]:
        keyed = [(entry.coords, entry) for entry in entries]
        leaves = []
        for group in self._str_slices(keyed, dim, 0):
            leaf = _Node(leaf=True)
            leaf.children = [entry for _, entry in group]
            leaf.recompute_rect()
            leaves.append(leaf)
        return leaves

    def _str_pack_nodes(self, nodes: list[_Node], dim: int) -> list[_Node]:
        keyed = [(node.lows, node) for node in nodes]
        parents = []
        for group in self._str_slices(keyed, dim, 0):
            parent = _Node(leaf=False)
            parent.children = [node for _, node in group]
            for child in parent.children:
                child.parent = parent
            parent.recompute_rect()
            parents.append(parent)
        return parents

    # ------------------------------------------------------------------ insert

    def insert(self, pid: int, coords: Sequence[float]) -> None:
        """Index point ``pid`` at ``coords``; duplicate ids are rejected."""
        if pid in self._where:
            raise IndexError_(f"point {pid} is already indexed")
        self.stats.inserts += 1
        entry = _Entry(pid, tuple(coords))
        leaf = self._choose_leaf(entry.coords)
        leaf.children.append(entry)
        self._where[pid] = leaf
        self._grow_upward(leaf, entry.coords)
        if len(leaf.children) > self._max:
            self._split(leaf)

    def _choose_leaf(self, coords: Coords) -> _Node:
        node = self._root
        while not node.leaf:
            best = None
            best_key = None
            for child in node.children:
                # Allocation-free enlargement of the child MBR by the point.
                old_area = 1.0
                new_area = 1.0
                for lo, hi, x in zip(child.lows, child.highs, coords):
                    old_area *= hi - lo
                    new_area *= (hi if hi > x else x) - (lo if lo < x else x)
                key = (new_area - old_area, old_area)
                if best_key is None or key < best_key:
                    best, best_key = child, key
            node = best
        return node

    def _grow_upward(self, node: _Node, coords: Coords) -> None:
        """Extend MBRs on the path to the root; reset epochs for the new entry."""
        current: _Node | None = node
        while current is not None:
            if current.lows:
                current.lows = tuple(map(min, current.lows, coords))
                current.highs = tuple(map(max, current.highs, coords))
            else:
                current.lows, current.highs = coords, coords
            current.epoch = 0
            current = current.parent

    # ------------------------------------------------------------------- split

    def _split(self, node: _Node) -> None:
        """Split an overflowing node; may propagate up to (and grow) the root."""
        while node is not None and len(node.children) > self._max:
            sibling = self._split_node(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(leaf=False)
                new_root.children = [node, sibling]
                node.parent = new_root
                sibling.parent = new_root
                new_root.recompute_rect()
                new_root.epoch = min(node.epoch, sibling.epoch)
                self._root = new_root
                return
            sibling.parent = parent
            parent.children.append(sibling)
            parent.recompute_rect()
            node = parent

    def _split_node(self, node: _Node) -> _Node:
        """Sort split: cut the children in half along the widest MBR side.

        Entries sort by coordinate and child nodes by MBR centre on the axis
        where the node is widest; the first half stays and the rest move to
        a new sibling. Both halves hold at least ``min_entries`` children
        because ``min_entries <= max_entries // 2`` is enforced at
        construction. Each half's epoch is the minimum of its children's, so
        a half is pruned only when everything under it was visited.
        """
        lows, highs = node.lows, node.highs
        axis = max(range(len(lows)), key=lambda d: highs[d] - lows[d])
        children = node.children
        if node.leaf:
            children.sort(key=lambda entry: entry.coords[axis])
        else:
            # Twice the centre: the same order without a division.
            children.sort(key=lambda child: child.lows[axis] + child.highs[axis])
        half = len(children) // 2
        sibling = _Node(leaf=node.leaf)
        node.children = children[:half]
        sibling.children = children[half:]
        node.recompute_rect()
        sibling.recompute_rect()
        node.epoch = min(child.epoch for child in node.children)
        sibling.epoch = min(child.epoch for child in sibling.children)
        if node.leaf:
            for entry in sibling.children:
                self._where[entry.pid] = sibling
        else:
            for child in sibling.children:
                child.parent = sibling
        return sibling

    # ------------------------------------------------------------------ delete

    def delete(self, pid: int) -> None:
        """Remove point ``pid``; unknown ids are rejected."""
        leaf = self._where.pop(pid, None)
        if leaf is None:
            raise IndexError_(f"point {pid} is not indexed")
        self.stats.deletes += 1
        leaf.children = [e for e in leaf.children if e.pid != pid]
        self._condense(leaf)

    def _condense(self, node: _Node) -> None:
        orphans: list[_Entry] = []
        current = node
        while current.parent is not None:
            parent = current.parent
            if len(current.children) < self._min:
                parent.children.remove(current)
                self._collect_entries(current, orphans)
            else:
                current.recompute_rect()
            current = parent
        current.recompute_rect()
        # Shrink a root that lost all but one child.
        while not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._root.parent = None
        if not self._root.leaf and not self._root.children:
            self._root = _Node(leaf=True)
        for entry in orphans:
            leaf = self._choose_leaf(entry.coords)
            leaf.children.append(entry)
            self._where[entry.pid] = leaf
            self._grow_upward(leaf, entry.coords)
            if len(leaf.children) > self._max:
                self._split(leaf)

    def _collect_entries(self, node: _Node, out: list[_Entry]) -> None:
        if node.leaf:
            out.extend(node.children)
        else:
            for child in node.children:
                self._collect_entries(child, out)

    # ----------------------------------------------------------------- queries

    def ball(self, center: Sequence[float], radius: float) -> list[tuple[int, Coords]]:
        """All indexed points within ``radius`` of ``center`` (inclusive).

        An entry is tested with ``math.dist(coords, center) <= radius``,
        :func:`~repro.common.distance.within_eps` inlined. A subtree is
        skipped only when its MBR lies beyond :func:`eps_sq_bound`, so no
        entry within ``radius`` is missed whatever the tree's shape. Counts
        as one range search in :attr:`stats`.
        """
        self.stats.range_searches += 1
        center = tuple(center)
        r_sq = eps_sq_bound(radius)
        results: list[tuple[int, Coords]] = []
        stack = [self._root]
        stats = self.stats
        dist = math.dist
        while stack:
            node = stack.pop()
            stats.nodes_accessed += 1
            if node.leaf:
                stats.entries_scanned += len(node.children)
                for entry in node.children:
                    if dist(entry.coords, center) <= radius:
                        results.append((entry.pid, entry.coords))
            else:
                for child in node.children:
                    # Squared distance to the child's MBR, inlined: this
                    # test runs for every child of every visited node and
                    # dominates search time.
                    min_sq = 0.0
                    for lo, hi, x in zip(child.lows, child.highs, center):
                        if x < lo:
                            diff = lo - x
                            min_sq += diff * diff
                        elif x > hi:
                            diff = x - hi
                            min_sq += diff * diff
                    if min_sq <= r_sq:
                        stack.append(child)
        return results

    def new_tick(self) -> int:
        """Start a new visiting epoch; returns the tick to probe with."""
        self._tick += 1
        return self._tick

    def ball_unvisited(
        self,
        center: Sequence[float],
        radius: float,
        tick: int,
        should_mark=None,
    ) -> list[tuple[int, Coords]]:
        """Epoch-filtered range search (Algorithm 4).

        Returns points in the ball not yet visited during epoch ``tick``.
        A returned entry is marked visited when ``should_mark`` is ``None``
        or ``should_mark(pid)`` is true; entries left unmarked keep being
        returned by later probes of the same tick. MS-BFS uses this to mark
        non-core points at first sight but traversal vertices (cores) only at
        expansion — via :meth:`mark` — so two searches approaching each other
        can still observe each other's frontier and merge. Subtrees whose
        epoch already equals ``tick`` are pruned without descending.
        """
        self.stats.range_searches += 1
        center = tuple(center)
        results: list[tuple[int, Coords]] = []
        self._probe(
            self._root, center, radius, eps_sq_bound(radius), tick, should_mark,
            results,
        )
        return results

    def mark(self, pid: int, tick: int) -> None:
        """Mark one indexed point as visited during epoch ``tick``.

        MS-BFS calls this when a core vertex is expanded; ancestor node
        epochs are raised lazily by later probes' backtracking, which is
        safe because a stale-low node epoch only costs pruning, never
        correctness.
        """
        leaf = self._where.get(pid)
        if leaf is None:
            raise IndexError_(f"point {pid} is not indexed")
        for entry in leaf.children:
            if entry.pid == pid:
                entry.epoch = tick
                return
        raise IndexError_(f"corrupt index: {pid} missing from its leaf")

    def _probe(
        self,
        node: _Node,
        center: Coords,
        radius: float,
        r_sq: float,
        tick: int,
        should_mark,
        out: list[tuple[int, Coords]],
    ) -> None:
        self.stats.nodes_accessed += 1
        if node.leaf:
            min_epoch = tick
            self.stats.entries_scanned += len(node.children)
            dist = math.dist
            for entry in node.children:
                if entry.epoch >= tick:
                    # Already visited this epoch: skipped before the distance
                    # test even runs.
                    self.stats.epoch_prunes += 1
                elif dist(entry.coords, center) <= radius:
                    if should_mark is None or should_mark(entry.pid):
                        entry.epoch = tick
                    out.append((entry.pid, entry.coords))
                if entry.epoch < min_epoch:
                    min_epoch = entry.epoch
            node.epoch = min_epoch
            return
        min_epoch = tick
        for child in node.children:
            if child.epoch >= tick:
                # Fully visited subtree: pruned without descending — the
                # payoff Algorithm 4 exists for.
                self.stats.epoch_prunes += 1
            else:
                # Squared distance to the MBR, inlined (see ball()).
                min_sq = 0.0
                for lo, hi, x in zip(child.lows, child.highs, center):
                    if x < lo:
                        diff = lo - x
                        min_sq += diff * diff
                    elif x > hi:
                        diff = x - hi
                        min_sq += diff * diff
                if min_sq <= r_sq:
                    self._probe(
                        child, center, radius, r_sq, tick, should_mark, out
                    )
            if child.epoch < min_epoch:
                min_epoch = child.epoch
        node.epoch = min_epoch

    # ------------------------------------------------------------- diagnostics

    def height(self) -> int:
        """Tree height (1 for a lone leaf root)."""
        depth = 1
        node = self._root
        while not node.leaf:
            node = node.children[0]
            depth += 1
        return depth

    def items(self) -> list[tuple[int, Coords]]:
        """All (pid, coords) pairs currently indexed."""
        out: list[_Entry] = []
        self._collect_entries(self._root, out)
        return [(e.pid, e.coords) for e in out]

    def check_invariants(self) -> None:
        """Raise AssertionError when a structural invariant is violated.

        Used by the test suite after randomized insert/delete workloads.
        """
        seen: set[int] = set()
        self._check_node(self._root, is_root=True, seen=seen)
        assert seen == set(self._where), "pid bookkeeping out of sync"
        for pid, leaf in self._where.items():
            assert any(e.pid == pid for e in leaf.children), (
                f"where-map points {pid} at a leaf that lacks it"
            )

    def _check_node(self, node: _Node, is_root: bool, seen: set[int]) -> None:
        if not is_root:
            assert len(node.children) >= self._min, "underfull node"
        assert len(node.children) <= self._max, "overfull node"
        for child in node.children:
            child_lows, child_highs = node.child_rect(child)
            assert all(map(le, node.lows, child_lows)) and all(
                map(le, child_highs, node.highs)
            ), "child escapes parent MBR"
            # A node prunes only what is visited: its epoch never exceeds
            # any child's (it may lag behind them).
            assert node.epoch <= child.epoch, "node epoch above a child's"
        if node.leaf:
            for entry in node.children:
                assert entry.pid not in seen, "duplicate pid in tree"
                seen.add(entry.pid)
        else:
            for child in node.children:
                assert child.parent is node, "broken parent pointer"
                self._check_node(child, is_root=False, seen=seen)

