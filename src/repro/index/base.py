"""The formal spatial-index contract every backend implements.

A backend provides the point-at-a-time primitives (``insert``, ``delete``,
``ball``, ``coords_of``, ``items``) and inherits correct generic
implementations of the rest: the batched mutations (:meth:`insert_many`,
:meth:`delete_many`) and the ids-only queries (:meth:`ball_pids`,
:meth:`ball_many_pids`). A ball holds the points p with
``within_eps(p, center, radius)`` (:mod:`repro.common.distance`).

The batched layer is the hot-path contract: COLLECT, the class scans and
anchor repair issue one :meth:`ball_many_pids` call per phase instead of one
Python-level call per point. A backend that can amortise work across
queries (the numpy grid) overrides it, one with bulk construction (the
STR-packing R-tree) overrides :meth:`insert_many`, and every other backend
keeps the loop fallback — results must be identical either way.

A capability flag lets callers adapt instead of probing with ``hasattr``:
:attr:`NeighborIndex.supports_epochs` says the backend implements the epoch
probing trio (``new_tick`` / ``ball_unvisited`` / ``mark``, paper
Algorithm 4). MS-BFS probes a backend without it with plain balls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import ClassVar

import numpy as np

from repro.common.errors import IndexError_
from repro.index.stats import IndexStats

Coords = tuple[float, ...]


class NeighborIndex(ABC):
    """Abstract base for all spatial-index backends.

    Subclasses must set :attr:`stats` (an :class:`IndexStats`) in their
    ``__init__`` and implement the abstract primitives; everything else has
    a correct generic fallback.
    """

    #: Whether the backend natively implements ``new_tick`` /
    #: ``ball_unvisited`` / ``mark`` (epoch probing, paper Algorithm 4).
    supports_epochs: ClassVar[bool] = False

    stats: IndexStats

    # ------------------------------------------------------------ primitives

    @abstractmethod
    def insert(self, pid: int, coords: Sequence[float]) -> None:
        """Index point ``pid`` at ``coords``; duplicate ids are rejected."""

    @abstractmethod
    def delete(self, pid: int) -> None:
        """Remove point ``pid``; unknown ids are rejected."""

    @abstractmethod
    def ball(self, center: Sequence[float], radius: float) -> list[tuple[int, Coords]]:
        """All indexed points within ``radius`` of ``center`` (inclusive)."""

    @abstractmethod
    def coords_of(self, pid: int) -> Coords:
        """Coordinates of an indexed point."""

    @abstractmethod
    def items(self) -> list[tuple[int, Coords]]:
        """All (pid, coords) pairs currently indexed."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __contains__(self, pid: int) -> bool: ...

    # ----------------------------------------------------- generic fallbacks

    def check_invariants(self) -> None:
        """Raise when a structural invariant is violated; no-op by default."""

    # ---------------------------------------------------------- batched layer

    def insert_many(self, items: Iterable[tuple[int, Sequence[float]]]) -> None:
        """Index a batch of (pid, coords) pairs, all or nothing.

        Equivalent to inserting one by one, in order, except that a batch
        naming a pid twice or a pid already indexed raises
        :class:`IndexError_` before anything changes. Backends with bulk
        construction machinery (STR packing) override this and keep that
        guarantee.
        """
        items = list(items)
        self._check_new(items)
        insert = self.insert
        for pid, coords in items:
            insert(pid, coords)

    def delete_many(self, pids: Iterable[int]) -> None:
        """Remove a batch of points, in order, all or nothing.

        A batch naming a pid twice or a pid not indexed raises
        :class:`IndexError_` before anything changes.
        """
        pids = list(pids)
        self._check_known(pids)
        delete = self.delete
        for pid in pids:
            delete(pid)

    def _check_new(self, items: Sequence[tuple[int, Sequence[float]]]) -> None:
        """Raise unless every pid of an insert batch is distinct and new."""
        seen: set[int] = set()
        for pid, _ in items:
            if pid in seen:
                raise IndexError_(f"point {pid} appears twice in the batch")
            if pid in self:
                raise IndexError_(f"point {pid} is already indexed")
            seen.add(pid)

    def _check_known(self, pids: Sequence[int]) -> None:
        """Raise unless every pid of a delete batch is distinct and indexed."""
        seen: set[int] = set()
        for pid in pids:
            if pid in seen:
                raise IndexError_(f"point {pid} appears twice in the batch")
            if pid not in self:
                raise IndexError_(f"point {pid} is not indexed")
            seen.add(pid)

    def ball_pids(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Pids within ``radius`` of ``center``, in :meth:`ball` order.

        The ids-only :meth:`ball`, counted as one range search, for callers
        that resolve coordinates themselves (the columnar store keeps them
        in its own arena).
        """
        ball = self.ball(center, radius)
        return np.fromiter((pid for pid, _ in ball), dtype=np.int64, count=len(ball))

    def ball_many_pids(
        self, centers: Sequence[Sequence[float]], radius: float
    ) -> list[np.ndarray]:
        """One :meth:`ball_pids` result per center, in input order.

        Must return exactly what per-center :meth:`ball_pids` calls would,
        counted as one range search per center. Vectorized backends override
        this to share work across centers; the fallback calls :meth:`ball`
        directly, one Python call per center fewer on the R-tree's hot path.
        """
        ball = self.ball
        return [
            np.fromiter((pid for pid, _ in hits), dtype=np.int64, count=len(hits))
            for hits in [ball(center, radius) for center in centers]
        ]
