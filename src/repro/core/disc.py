"""The public DISC clusterer (the paper's primary contribution).

One :meth:`DISC.advance` call processes one window advance: the COLLECT step
(Algorithm 1) updates neighbour counts and finds ex-cores and neo-cores; the
CLUSTER step (Algorithm 2) consolidates them into reachability classes and
updates cluster labels, using MS-BFS (Algorithm 3) and epoch-based R-tree
probing (Algorithm 4) unless the ablation knobs turn them off.

Example:
    >>> from repro import DISC
    >>> from repro.common.points import StreamPoint
    >>> disc = DISC(eps=1.0, tau=3)
    >>> batch = [StreamPoint(i, (float(i) * 0.1, 0.0)) for i in range(10)]
    >>> summary = disc.advance(batch, [])
    >>> disc.snapshot().num_clusters
    1
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.common.config import ClusteringParams
from repro.common.points import StreamPoint
from repro.common.snapshot import Clustering
from repro.core.cluster import process_ex_cores, process_neo_cores, repair_anchors
from repro.core.collect import collect
from repro.core.events import StrideSummary
from repro.core.state import WindowState
from repro.core.store import WAS_CORE
from repro.index.base import NeighborIndex
from repro.index.registry import backend_name, make_index


class DISC:
    """Density-based Incremental Striding Clusterer.

    Produces exactly the same clustering as DBSCAN over the current window
    (core partition identical; border assignment valid per DESIGN.md §3.4)
    while doing work proportional to what actually changed.

    Args:
        eps: distance threshold.
        tau: density threshold (MinPts); a point is core when its
            epsilon-neighbourhood including itself holds >= tau points.
        index: spatial-index backend — a registry name (``"rtree"``,
            ``"vectorgrid"``, ``"linear"``) or a ready
            :class:`~repro.index.base.NeighborIndex`. Defaults to the R-tree
            the paper uses.
        multi_starter: use MS-BFS for connectivity checks (Figure 8 knob).
        epoch_probing: use epoch-based index probing (Figure 8 knob); acts
            only on an index that declares ``supports_epochs`` (the R-tree
            and the linear scan), any other is probed with plain balls.
        tracer: optional :class:`~repro.observability.trace.Tracer`; when
            set, every ``advance`` produces one
            :class:`~repro.observability.trace.StrideTrace` with phase
            timings, algorithm counters and the index-stats delta. ``None``
            (the default) keeps the hot path untouched — no timing calls, no
            snapshots.
    """

    name = "DISC"

    def __init__(
        self,
        eps: float,
        tau: int,
        *,
        index: str | NeighborIndex | None = None,
        multi_starter: bool = True,
        epoch_probing: bool = True,
        tracer=None,
    ) -> None:
        self.index = make_index(index, eps=eps)
        name = index if index is None or isinstance(index, str) else backend_name(index)
        self.params = ClusteringParams(eps, tau, index=name)
        self.state = WindowState(self.params)
        self.multi_starter = multi_starter
        self.epoch_probing = epoch_probing
        self.tracer = tracer
        # Compact the cluster-id forest periodically so unbounded streams do
        # not accumulate merge-redirection chains (see WindowState.compact_cids).
        self.compact_every = 256
        self._strides_since_compact = 0

    @property
    def stats(self):
        """Operation counters of the underlying spatial index."""
        return self.index.stats

    def advance(
        self,
        delta_in: Sequence[StreamPoint],
        delta_out: Sequence[StreamPoint] = (),
    ) -> StrideSummary:
        """Advance the window by one stride and update all labels.

        Args:
            delta_in: points entering the window.
            delta_out: points leaving the window (ids must be present).

        Returns:
            A :class:`StrideSummary` with the evolution events observed.
        """
        state = self.state
        index = self.index
        tracer = self.tracer
        trace = None
        if tracer is not None:
            from repro.observability.trace import perf_counter

            trace = tracer.begin()
            stats_before = index.stats.snapshot()
            t0 = perf_counter()

        result = collect(state, index, delta_in, delta_out, trace=trace)
        if trace is not None:
            t1 = perf_counter()
            trace.phases.collect = t1 - t0
        ex_events = process_ex_cores(
            state,
            index,
            result.ex_cores,
            result.balls,
            multi_starter=self.multi_starter,
            epoch_probing=self.epoch_probing,
            trace=trace,
        )
        if trace is not None:
            t2 = perf_counter()
            trace.phases.split_checks = t2 - t1
        # Algorithm 2, line 8: exited ex-cores leave the index only now.
        for pid in result.c_out:
            index.delete(pid)
        neo_events = process_neo_cores(
            state, index, result.neo_cores, result.balls, trace=trace
        )
        if trace is not None:
            t3 = perf_counter()
            trace.phases.merge_checks = t3 - t2
        repair_anchors(state, index)
        self._advance_generation(result)
        self._strides_since_compact += 1
        if self._strides_since_compact >= self.compact_every:
            state.compact_cids()
            self._strides_since_compact = 0

        summary = StrideSummary(
            events=ex_events + neo_events,
            num_ex_cores=len(result.ex_cores),
            num_neo_cores=len(result.neo_cores),
            num_inserted=len(delta_in),
            num_deleted=len(delta_out),
        )
        if trace is not None:
            t4 = perf_counter()
            trace.phases.maintenance = t4 - t3
            trace.elapsed_s = t4 - t0
            trace.counters.num_inserted = len(delta_in)
            trace.counters.num_deleted = len(delta_out)
            trace.counters.ex_cores = len(result.ex_cores)
            trace.counters.neo_cores = len(result.neo_cores)
            trace.index = index.stats.snapshot() - stats_before
            trace.store = state.store.counters()
            for event in summary.events:
                key = event.kind.value
                trace.events[key] = trace.events.get(key, 0) + 1
            tracer.emit(trace)
        return summary

    def _advance_generation(self, result) -> None:
        """Purge exited rows and roll core flags into ``was_core``."""
        arena = self.state.store
        arena.free(result.deleted_ids)
        ex_slots = [
            slot
            for pid in result.ex_cores
            if (slot := arena.get_slot(pid)) is not None
        ]
        if ex_slots:
            arena.flags[np.asarray(ex_slots, dtype=np.int64)] &= ~WAS_CORE
        if result.neo_cores:
            neo_slots = arena.slots_of(result.neo_cores)
            core = arena.n_eps[neo_slots] >= self.params.tau
            arena.flags[neo_slots[core]] |= WAS_CORE
            arena.flags[neo_slots[~core]] &= ~WAS_CORE

    def snapshot(self) -> Clustering:
        """Current clustering (cores, borders with valid anchors, noise)."""
        return self.state.snapshot()

    def labels(self) -> dict[int, int]:
        """Point id -> resolved cluster id for every non-noise point."""
        return dict(self.snapshot().labels)

    def __len__(self) -> int:
        """Number of points currently in the window."""
        return len(self.state.store)

    def __repr__(self) -> str:
        return (
            f"DISC(eps={self.params.eps}, tau={self.params.tau}, "
            f"points={len(self)}, msbfs={self.multi_starter}, "
            f"epoch={self.epoch_probing})"
        )
