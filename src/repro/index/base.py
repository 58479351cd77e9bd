"""The formal spatial-index contract every backend implements.

Historically the indexes in this package shared only a duck-typed interface;
:class:`NeighborIndex` makes the contract explicit. A backend provides the
point-at-a-time primitives (``insert``, ``delete``, ``ball``, ``coords_of``,
``items``) and inherits correct generic implementations of everything else:
counting (:meth:`count_ball`) and the batched query layer
(:meth:`insert_many`, :meth:`delete_many`, :meth:`ball_many`,
:meth:`ball_many_pids`, :meth:`count_ball_many`). A ball holds the points p
with ``within_eps(p, center, radius)`` (:mod:`repro.common.distance`).

The batched layer is the hot-path contract: COLLECT and anchor repair issue
one batched call per stride instead of one Python-level call per point, so a
backend that can amortise work across queries (the numpy grid, the STR
bulk-loading R-tree) overrides the ``*_many`` methods while every other
backend keeps the loop fallback — results must be identical either way.

A capability flag lets callers adapt instead of probing with ``hasattr``:
:attr:`NeighborIndex.supports_epochs` says the backend natively implements
the epoch probing trio (``new_tick`` / ``ball_unvisited`` / ``mark``, paper
Algorithm 4). Backends without it are wrapped in
:class:`repro.index.epochs.EpochAdapter`, which supplies the same semantics
generically.
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

    def count_ball(self, center: Sequence[float], radius: float) -> int:
        """Number of points within ``radius`` of ``center``."""
        return len(self.ball(center, radius))

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

    def ball_many(
        self, centers: Sequence[Sequence[float]], radius: float
    ) -> list[list[tuple[int, Coords]]]:
        """One ball result list per center, in input order.

        Must return exactly what per-center :meth:`ball` calls would: the
        same points per ball, counted as one range search each in
        :attr:`stats`. Vectorized backends override this to share work
        across centers.
        """
        ball = self.ball
        return [ball(center, radius) for center in centers]

    def count_ball_many(
        self, centers: Sequence[Sequence[float]], radius: float
    ) -> list[int]:
        """One in-ball count per center, in input order.

        Counts through :meth:`ball_many_pids`, so a backend with a batched
        ids-only path (the numpy grid) counts with it. Results are identical
        to per-center :meth:`count_ball` calls.
        """
        return [len(pids) for pids in self.ball_many_pids(centers, radius)]

    def ball_pids(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Pids within ``radius`` of ``center``, in :meth:`ball` order.

        The single-center ids-only query; same contract as
        :meth:`ball_many_pids` with one center, counted as one range search.
        """
        ball = self.ball(center, radius)
        return np.fromiter((pid for pid, _ in ball), dtype=np.int64, count=len(ball))

    def ball_many_pids(
        self, centers: Sequence[Sequence[float]], radius: float
    ):
        """One int64 pid array per center, in :meth:`ball` order.

        The ids-only variant of :meth:`ball_many` for callers that resolve
        coordinates themselves (the columnar store keeps them in its own
        arena): skipping the per-candidate ``(pid, coords)`` tuple building
        is the difference between the batched layer paying off and breaking
        even on small balls. Stats accounting is identical to
        :meth:`ball_many` — one range search per center.
        """
        return [
            np.fromiter(
                (pid for pid, _ in ball), dtype=np.int64, count=len(ball)
            )
            for ball in self.ball_many(centers, radius)
        ]
