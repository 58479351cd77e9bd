"""Incremental DBSCAN (Ester, Kriegel, Sander, Wimmer, Xu — VLDB 1998).

IncDBSCAN updates clusters *one point at a time*: every insertion runs the
affected-core case analysis (noise / creation / absorption / merge), every
deletion runs the potential-split analysis (the "slow deletion problem").
Those per-point procedures are exactly DISC's neo-core and ex-core machinery
restricted to a single-point delta, so this implementation processes each
point as a one-point stride over the shared substrate. Following the paper's
experimental setup, the split-side reachability check "ran with our MS-BFS
algorithm in its own favor" — both optimization knobs are exposed here too.

What it deliberately does *not* do is DISC's per-stride consolidation:
retro/nascent reachability classes are rebuilt from scratch for every single
point, one connectivity check per affected point rather than one per class.
That difference is the entire performance gap measured in Figures 4-7.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.common.points import StreamPoint
from repro.common.snapshot import Clustering
from repro.core.disc import DISC
from repro.core.events import StrideSummary
from repro.index.base import NeighborIndex


class IncrementalDBSCAN:
    """Point-at-a-time incremental DBSCAN over a sliding window.

    Produces exactly the same clustering as DBSCAN (same contract as DISC).

    Args:
        eps: distance threshold.
        tau: density threshold (MinPts, neighbourhood includes the point).
        index: spatial-index backend — a registry name or a ready
            :class:`~repro.index.base.NeighborIndex` (default R-tree).
        multi_starter / epoch_probing: reachability-check optimizations,
            granted "in its own favor" as in the paper's evaluation.
    """

    name = "IncDBSCAN"

    def __init__(
        self,
        eps: float,
        tau: int,
        *,
        index: str | NeighborIndex | None = None,
        multi_starter: bool = True,
        epoch_probing: bool = True,
    ) -> None:
        self._engine = DISC(
            eps,
            tau,
            index=index,
            multi_starter=multi_starter,
            epoch_probing=epoch_probing,
        )

    @property
    def params(self):
        return self._engine.params

    @property
    def stats(self):
        return self._engine.stats

    def advance(
        self,
        delta_in: Sequence[StreamPoint],
        delta_out: Sequence[StreamPoint] = (),
    ) -> StrideSummary:
        """Process the stride's points strictly one by one.

        Deletions are applied before insertions, matching the order in which
        a sliding window retires and admits data.
        """
        combined = StrideSummary(
            num_inserted=len(delta_in), num_deleted=len(delta_out)
        )
        for sp in delta_out:
            summary = self._engine.advance((), (sp,))
            combined.events.extend(summary.events)
            combined.num_ex_cores += summary.num_ex_cores
            combined.num_neo_cores += summary.num_neo_cores
        for sp in delta_in:
            summary = self._engine.advance((sp,), ())
            combined.events.extend(summary.events)
            combined.num_ex_cores += summary.num_ex_cores
            combined.num_neo_cores += summary.num_neo_cores
        return combined

    def snapshot(self) -> Clustering:
        return self._engine.snapshot()

    def labels(self) -> dict[int, int]:
        return self._engine.labels()

    def __len__(self) -> int:
        return len(self._engine)
