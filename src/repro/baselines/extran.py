"""EXTRA-N (Yang, Rundensteiner, Ward — EDBT 2009), predicted-view style.

EXTRA-N attacks the *slow deletion* problem by never running a range search
for an expiring point. Under a count-based window whose stride divides it,
every point's expiry slide is known the moment it arrives (arrival + m where
m = window/stride sub-windows fit one window). EXTRA-N therefore:

- runs exactly **one** range search per *arriving* point, recording the
  neighbour relationship together with each endpoint's expiry slide — the
  per-sub-window "predicted views" of the original paper;
- on every slide, retires expired points by bookkeeping alone: counts are
  decremented through the expiring points' materialised neighbour lists
  (robust even to a trailing partial stride), with the per-slide expiry
  histograms providing the predicted views;
- reclusters per slide by walking the *materialised* neighbour lists (no
  index probes at all).

This keeps the reported trade-off intact: deletions are free of range
searches, but per-slide maintenance touches the whole window (so the speedup
saturates as the stride shrinks) and memory holds the full neighbourship
relation plus per-view bookkeeping (so large window/stride ratios blow up —
the paper's Figure 5 failure mode). Exact results: identical to DBSCAN.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Sequence

from repro.common.config import ClusteringParams, WindowSpec
from repro.common.errors import ConfigurationError, StreamOrderError
from repro.common.points import StreamPoint
from repro.common.snapshot import Category, Clustering
from repro.core.events import StrideSummary
from repro.index.base import NeighborIndex
from repro.index.registry import make_index

Coords = tuple[float, ...]


class _ExtraNRecord:
    """Per-point predicted view: neighbour list plus expiry histogram."""

    __slots__ = ("pid", "coords", "expiry", "n_eps", "neighbours", "hist")

    def __init__(self, pid: int, coords: Coords, expiry: int) -> None:
        self.pid = pid
        self.coords = coords
        self.expiry = expiry  # first slide at which this point is gone
        self.n_eps = 1  # includes the point itself
        self.neighbours: list[int] = []
        self.hist: Counter[int] = Counter()  # expiry slide -> neighbour count


class ExtraN:
    """Sliding-window exact clustering via predicted views.

    Args:
        eps, tau: DBSCAN thresholds (neighbourhood includes the point).
        spec: the window specification; the stride must divide the window so
            expiry slides are exact (the setting used throughout the paper's
            evaluation).
        index: substrate for the single arrival-time range search — a
            registry name or a ready
            :class:`~repro.index.base.NeighborIndex` (default R-tree).
    """

    name = "EXTRA-N"

    def __init__(
        self,
        eps: float,
        tau: int,
        spec: WindowSpec,
        *,
        index: str | NeighborIndex | None = None,
    ) -> None:
        if spec.window % spec.stride != 0:
            raise ConfigurationError(
                "EXTRA-N needs stride to divide window "
                f"(got window={spec.window}, stride={spec.stride})"
            )
        self.params = ClusteringParams(
            eps, tau, index=index if isinstance(index, str) else None
        )
        self.spec = spec
        self._lifetime = spec.strides_per_window  # m sub-windows
        self.index = make_index(index, eps=eps)
        self._records: dict[int, _ExtraNRecord] = {}
        self._slide = 0
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
        """Advance one slide: free expirations, searched arrivals, recluster."""
        self._apply(delta_in, delta_out)
        self._recluster()
        return StrideSummary(
            num_inserted=len(delta_in), num_deleted=len(delta_out)
        )

    def prefill(self, batches: Sequence[Sequence[StreamPoint]]) -> None:
        """Fill the window slide-by-slide, reclustering only once at the end.

        The benchmark harness uses this so arrival-slide bookkeeping (which
        the predicted views depend on) is correct without paying a full
        reclustering pass per fill slide.
        """
        for batch in batches:
            self._apply(batch, ())
        self._recluster()

    def _apply(
        self,
        delta_in: Sequence[StreamPoint],
        delta_out: Sequence[StreamPoint],
    ) -> None:
        records = self._records
        slide = self._slide

        # --- expirations: pure bookkeeping, zero range searches ------------
        # Counts are decremented through the materialised neighbour lists of
        # the points that *actually* leave. (Decrementing from the predicted
        # views alone breaks on a trailing partial stride, where points can
        # outlive their predicted slide.)
        for sp in delta_out:
            rec = records.pop(sp.pid, None)
            if rec is None:
                raise StreamOrderError(f"cannot delete {sp.pid}: not in window")
            self.index.delete(sp.pid)
            for qid in rec.neighbours:
                q = records.get(qid)
                if q is not None:
                    q.n_eps -= 1
                    q.hist[rec.expiry] -= 1
                    if q.hist[rec.expiry] <= 0:
                        del q.hist[rec.expiry]

        # --- arrivals: one range search each --------------------------------
        expiry = slide + self._lifetime
        for sp in delta_in:
            if sp.pid in records:
                raise StreamOrderError(f"cannot insert {sp.pid}: already present")
            rec = _ExtraNRecord(sp.pid, tuple(sp.coords), expiry)
            records[sp.pid] = rec
            self.index.insert(sp.pid, rec.coords)
            for qid, _ in self.index.ball(rec.coords, self.params.eps):
                if qid == sp.pid:
                    continue
                q = records[qid]
                rec.neighbours.append(qid)
                q.neighbours.append(sp.pid)
                rec.n_eps += 1
                q.n_eps += 1
                rec.hist[q.expiry] += 1
                q.hist[expiry] += 1
        self._slide += 1

    def _recluster(self) -> None:
        """Label the window from the materialised neighbour lists."""
        tau = self.params.tau
        records = self._records
        labels: dict[int, int] = {}
        categories: dict[int, Category] = {}
        next_cid = 0

        for rec in records.values():
            # Lazy compaction: drop expired pids from the neighbour list.
            if len(rec.neighbours) + 1 != rec.n_eps:
                rec.neighbours = [q for q in rec.neighbours if q in records]

        for pid, rec in records.items():
            if pid in categories:
                continue
            if rec.n_eps < tau:
                categories[pid] = Category.NOISE  # may be reclaimed as border
                continue
            cid = next_cid
            next_cid += 1
            categories[pid] = Category.CORE
            labels[pid] = cid
            queue = deque(rec.neighbours)
            while queue:
                qid = queue.popleft()
                q = records[qid]
                known = categories.get(qid)
                if known is Category.NOISE:
                    categories[qid] = Category.BORDER
                    labels[qid] = cid
                    continue
                if known is not None:
                    continue
                labels[qid] = cid
                if q.n_eps >= tau:
                    categories[qid] = Category.CORE
                    queue.extend(q.neighbours)
                else:
                    categories[qid] = Category.BORDER
        self._labels = labels
        self._categories = categories

    def memory_cells(self) -> int:
        """Bookkeeping cells held (neighbour entries + histogram buckets).

        This is the quantity that explodes with the window/stride ratio and
        produces the paper's Figure 5 out-of-memory behaviour.
        """
        return sum(
            len(rec.neighbours) + len(rec.hist) for rec in self._records.values()
        )

    def snapshot(self) -> Clustering:
        return Clustering(self._labels, self._categories)

    def labels(self) -> dict[int, int]:
        return dict(self._labels)

    def __len__(self) -> int:
        return len(self._records)
