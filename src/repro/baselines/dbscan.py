"""Static DBSCAN (Ester et al. 1996) and its sliding-window wrapper.

The wrapper maintains the spatial index incrementally but reclusters the
whole window from scratch on every advance — exactly how the paper uses
DBSCAN as the baseline of Figures 4 and 5 ("at least 19 range searches" in
Example 1: one per point in the window).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.common.config import ClusteringParams
from repro.common.errors import StreamOrderError
from repro.common.points import StreamPoint
from repro.common.snapshot import Category, Clustering
from repro.core.events import StrideSummary
from repro.index.base import NeighborIndex
from repro.index.registry import make_index

Coords = tuple[float, ...]


def dbscan_labels(
    index,
    points: dict[int, Coords],
    params: ClusteringParams,
) -> tuple[dict[int, int], dict[int, Category]]:
    """Run classic DBSCAN over ``points`` using ``index`` for neighbourhoods.

    Executes exactly one range search per point. Border points are assigned
    to the first cluster whose expansion reaches them (the classic
    order-dependent rule; see DESIGN.md §3.4 for the equivalence contract).

    Returns:
        ``(labels, categories)`` where labels maps non-noise pids to cluster
        ids numbered from 0 in discovery order.
    """
    eps = params.eps
    tau = params.tau
    labels: dict[int, int] = {}
    categories: dict[int, Category] = {}
    visited: set[int] = set()
    next_cid = 0

    for pid, coords in points.items():
        if pid in visited:
            continue
        visited.add(pid)
        neighbours = index.ball(coords, eps)
        if len(neighbours) < tau:
            categories[pid] = Category.NOISE  # may be reclaimed as a border
            continue
        cid = next_cid
        next_cid += 1
        categories[pid] = Category.CORE
        labels[pid] = cid
        queue = deque(qid for qid, _ in neighbours if qid != pid)
        while queue:
            qid = queue.popleft()
            if qid in visited:
                if categories.get(qid) is Category.NOISE:
                    # Noise seen earlier turns out to be density-reachable.
                    categories[qid] = Category.BORDER
                    labels[qid] = cid
                continue
            visited.add(qid)
            labels[qid] = cid
            q_neighbours = index.ball(points[qid], eps)
            if len(q_neighbours) >= tau:
                categories[qid] = Category.CORE
                # Visited points must still be enqueued: noise seen earlier is
                # reclaimed as border at dequeue time.
                queue.extend(x for x, _ in q_neighbours if x != qid)
            else:
                categories[qid] = Category.BORDER
    return labels, categories


class SlidingDBSCAN:
    """Recompute-from-scratch DBSCAN over a sliding window.

    The index is maintained incrementally across strides (matching the
    paper's setup, where index maintenance is not what distinguishes the
    methods), but every :meth:`advance` runs a full reclustering pass.

    Args:
        eps, tau: DBSCAN thresholds.
        index: injected spatial substrate — a registry name or a ready
            :class:`~repro.index.base.NeighborIndex`; defaults to the R-tree.
    """

    name = "DBSCAN"

    def __init__(
        self,
        eps: float,
        tau: int,
        *,
        index: str | NeighborIndex | None = None,
    ) -> None:
        self.params = ClusteringParams(
            eps, tau, index=index if isinstance(index, str) else None
        )
        self.index = make_index(index, eps=eps)
        self._points: dict[int, Coords] = {}
        self._labels: dict[int, int] = {}
        self._categories: dict[int, Category] = {}

    @property
    def stats(self):
        return self.index.stats

    def advance(
        self,
        delta_in: Sequence[StreamPoint],
        delta_out: Sequence[StreamPoint] = (),
    ) -> StrideSummary:
        """Apply the stride's deltas and recluster the whole window."""
        for sp in delta_out:
            if sp.pid not in self._points:
                raise StreamOrderError(f"cannot delete {sp.pid}: not in the window")
            del self._points[sp.pid]
            self.index.delete(sp.pid)
        for sp in delta_in:
            if sp.pid in self._points:
                raise StreamOrderError(
                    f"cannot insert {sp.pid}: id already in window"
                )
            coords = tuple(sp.coords)
            self._points[sp.pid] = coords
            self.index.insert(sp.pid, coords)
        self._labels, self._categories = dbscan_labels(
            self.index, self._points, self.params
        )
        return StrideSummary(
            num_inserted=len(delta_in), num_deleted=len(delta_out)
        )

    def snapshot(self) -> Clustering:
        return Clustering(self._labels, self._categories)

    def labels(self) -> dict[int, int]:
        return dict(self._labels)

    def __len__(self) -> int:
        return len(self._points)
