"""Generic epoch probing for backends without native visit tracking.

The paper's Algorithm 4 (epoch-based probing) was originally R-tree-only in
this reproduction: the tree stores a visit epoch per entry and per node and
prunes fully visited subtrees. Grid backends have no such machinery, which
forced ``epoch_probing=False`` whenever DISC ran on them.

:class:`EpochAdapter` removes that restriction. It wraps *any*
:class:`~repro.index.base.NeighborIndex` and supplies the epoch trio —
``new_tick`` / ``ball_unvisited`` / ``mark`` — by tracking visit epochs in a
side dictionary and filtering the wrapped backend's plain ball results. The
marking discipline is exactly the native one (see ``repro.index.rtree``): a
returned point is marked visited when ``should_mark`` is ``None`` or approves
its pid; unmarked points keep being returned by later probes of the same
tick, so MS-BFS searches converging on each other still see each other's
frontier cores and can merge.

What the adapter cannot replicate is the R-tree's *subtree* pruning: the
wrapped backend still enumerates the full ball and the filter discards
already-visited points afterwards. The semantics are identical; only the
constant factor differs. Every other call — including the batched layer, so
a wrapped :class:`~repro.index.vectorgrid.VectorGridIndex` keeps its
vectorized ``ball_many_pids`` — is forwarded untouched.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.common.errors import IndexError_
from repro.index.base import Coords, NeighborIndex


class EpochAdapter(NeighborIndex):
    """Visited-tracking wrapper giving any backend epoch-probing semantics.

    Args:
        inner: the backend to wrap; exposed as :attr:`inner`.
    """

    supports_epochs = True

    def __init__(self, inner: NeighborIndex) -> None:
        self.inner = inner
        self._epochs: dict[int, int] = {pid: 0 for pid, _ in inner.items()}
        self._tick = 0

    @property
    def stats(self):
        return self.inner.stats

    # ------------------------------------------------------------ forwarding

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, pid: int) -> bool:
        return pid in self.inner

    def coords_of(self, pid: int) -> Coords:
        return self.inner.coords_of(pid)

    def insert(self, pid: int, coords: Sequence[float]) -> None:
        self.inner.insert(pid, coords)
        self._epochs[pid] = 0

    def delete(self, pid: int) -> None:
        self.inner.delete(pid)
        del self._epochs[pid]

    def insert_many(self, items: Iterable[tuple[int, Sequence[float]]]) -> None:
        # Validated here too, so a wrapped backend that breaks the
        # all-or-nothing contract still cannot desync the epochs.
        items = list(items)
        self._check_new(items)
        self.inner.insert_many(items)
        epochs = self._epochs
        for pid, _ in items:
            epochs[pid] = 0

    def delete_many(self, pids: Iterable[int]) -> None:
        pids = list(pids)
        self._check_known(pids)
        self.inner.delete_many(pids)
        epochs = self._epochs
        for pid in pids:
            del epochs[pid]

    def ball(self, center: Sequence[float], radius: float) -> list[tuple[int, Coords]]:
        return self.inner.ball(center, radius)

    def ball_many(
        self, centers: Sequence[Sequence[float]], radius: float
    ) -> list[list[tuple[int, Coords]]]:
        return self.inner.ball_many(centers, radius)

    def count_ball(self, center: Sequence[float], radius: float) -> int:
        return self.inner.count_ball(center, radius)

    def count_ball_many(
        self, centers: Sequence[Sequence[float]], radius: float
    ) -> list[int]:
        return self.inner.count_ball_many(centers, radius)

    def ball_many_pids(self, centers: Sequence[Sequence[float]], radius: float):
        return self.inner.ball_many_pids(centers, radius)

    def ball_pids(self, center: Sequence[float], radius: float):
        return self.inner.ball_pids(center, radius)

    def items(self) -> list[tuple[int, Coords]]:
        return self.inner.items()

    # ---------------------------------------------------------- epoch probing

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
        """Points in the ball not yet visited during epoch ``tick``.

        Marking semantics mirror the native implementations: a returned
        point is marked when ``should_mark`` is ``None`` or approves its
        pid; unmarked points keep being returned by later probes.
        """
        epochs = self._epochs
        results = []
        pruned = 0
        for pid, coords in self.inner.ball(center, radius):
            if epochs[pid] < tick:
                if should_mark is None or should_mark(pid):
                    epochs[pid] = tick
                results.append((pid, coords))
            else:
                pruned += 1
        self.inner.stats.epoch_prunes += pruned
        return results

    def ball_unvisited_pids(
        self,
        center: Sequence[float],
        radius: float,
        tick: int,
        should_mark=None,
    ) -> list[int]:
        """Ids-only :meth:`ball_unvisited`; identical marking and stats.

        Backed by the wrapped index's vectorized :meth:`ball_pids`, so no
        ``(pid, coords)`` tuples are built for callers (the columnar MS-BFS
        expansion) that resolve state by pid anyway.
        """
        epochs = self._epochs
        results: list[int] = []
        pruned = 0
        for pid in self.inner.ball_pids(center, radius).tolist():
            if epochs[pid] < tick:
                if should_mark is None or should_mark(pid):
                    epochs[pid] = tick
                results.append(pid)
            else:
                pruned += 1
        self.inner.stats.epoch_prunes += pruned
        return results

    def mark(self, pid: int, tick: int) -> None:
        """Mark one indexed point as visited during epoch ``tick``."""
        if pid not in self._epochs:
            raise IndexError_(f"point {pid} is not indexed")
        self._epochs[pid] = tick

    # ------------------------------------------------------------ diagnostics

    def check_invariants(self) -> None:
        self.inner.check_invariants()
        assert set(self._epochs) == {pid for pid, _ in self.inner.items()}, (
            "epoch bookkeeping out of sync with the wrapped index"
        )

    def __repr__(self) -> str:
        return f"EpochAdapter({self.inner!r})"


def with_epochs(index: NeighborIndex) -> NeighborIndex:
    """Return ``index`` itself if it probes epochs natively, else wrap it."""
    if index.supports_epochs:
        return index
    return EpochAdapter(index)
