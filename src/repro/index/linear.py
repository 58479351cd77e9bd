"""Brute-force spatial index with the same interface as :class:`RTree`.

Used as the test oracle: every R-tree behaviour (plain and epoch-filtered
searches included) must agree with this index on identical workloads. It is
also a legitimate fallback for tiny windows where tree overhead dominates.

Distance tests go through :func:`~repro.common.distance.within_eps_many`
over a lazily rebuilt candidate matrix, so one vectorized pass replaces the
per-point loop while results keep the insertion order of the point table.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.common.distance import within_eps_many
from repro.common.errors import IndexError_
from repro.index.base import NeighborIndex
from repro.index.stats import IndexStats

Coords = tuple[float, ...]


class LinearScanIndex(NeighborIndex):
    """Dictionary-backed index scanning every point per search."""

    supports_epochs = True

    def __init__(self, stats: IndexStats | None = None) -> None:
        self._points: dict[int, Coords] = {}
        self._epochs: dict[int, int] = {}
        self._tick = 0
        self._pids: list[int] = []
        self._matrix: np.ndarray | None = None
        self._dirty = True
        self.stats = stats if stats is not None else IndexStats()

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, pid: int) -> bool:
        return pid in self._points

    def coords_of(self, pid: int) -> Coords:
        return self._points[pid]

    def insert(self, pid: int, coords: Sequence[float]) -> None:
        if pid in self._points:
            raise IndexError_(f"point {pid} is already indexed")
        self.stats.inserts += 1
        self._points[pid] = tuple(coords)
        self._epochs[pid] = 0
        self._dirty = True

    def delete(self, pid: int) -> None:
        if pid not in self._points:
            raise IndexError_(f"point {pid} is not indexed")
        self.stats.deletes += 1
        del self._points[pid]
        del self._epochs[pid]
        self._dirty = True

    def _refresh(self) -> None:
        if not self._dirty:
            return
        self._pids = list(self._points)
        self._matrix = np.array(
            [self._points[pid] for pid in self._pids], dtype=np.float64
        )
        self._dirty = False

    def ball(self, center: Sequence[float], radius: float) -> list[tuple[int, Coords]]:
        """All points within ``radius`` of ``center`` (inclusive)."""
        self.stats.range_searches += 1
        self.stats.nodes_accessed += 1  # the flat point table is one "node"
        self.stats.entries_scanned += len(self._points)
        if not self._points:
            return []
        self._refresh()
        mask = within_eps_many(self._matrix, center, radius)
        points = self._points
        return [
            (pid, points[pid])
            for pid in (self._pids[i] for i in np.nonzero(mask)[0])
        ]

    def new_tick(self) -> int:
        self._tick += 1
        return self._tick

    def ball_unvisited(
        self,
        center: Sequence[float],
        radius: float,
        tick: int,
        should_mark=None,
    ) -> list[tuple[int, Coords]]:
        """Points in the ball not yet visited at ``tick``.

        Marking semantics mirror :meth:`repro.index.rtree.RTree.ball_unvisited`:
        a returned point is marked when ``should_mark`` is ``None`` or approves
        its pid; unmarked points keep being returned.
        """
        self.stats.range_searches += 1
        self.stats.nodes_accessed += 1
        self.stats.entries_scanned += len(self._points)
        if not self._points:
            return []
        self._refresh()
        within = within_eps_many(self._matrix, center, radius)
        results = []
        epochs = self._epochs
        points = self._points
        pruned = 0
        for i, pid in enumerate(self._pids):
            if epochs[pid] >= tick:
                pruned += 1  # skipped by the epoch filter before the distance test
                continue
            if within[i]:
                if should_mark is None or should_mark(pid):
                    epochs[pid] = tick
                results.append((pid, points[pid]))
        self.stats.epoch_prunes += pruned
        return results

    def mark(self, pid: int, tick: int) -> None:
        """Mark one point visited during epoch ``tick`` (MS-BFS expansion)."""
        if pid not in self._epochs:
            raise IndexError_(f"point {pid} is not indexed")
        self._epochs[pid] = tick

    def items(self) -> list[tuple[int, Coords]]:
        return list(self._points.items())

    def check_invariants(self) -> None:
        """Interface parity with :class:`RTree`; nothing can go wrong here."""
        assert set(self._points) == set(self._epochs)
        if not self._dirty:
            assert self._matrix is not None
            assert self._pids == list(self._points)
