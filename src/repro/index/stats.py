"""Counters for index operations.

The paper's Figure 7 reports the *number of range searches* executed by each
method; every index in this library funnels its searches through an
:class:`IndexStats` so benches can read the counts without instrumenting the
algorithms themselves. The finer-grained counters back the per-stride trace
layer (:mod:`repro.observability`): ``nodes_accessed`` and
``entries_scanned`` measure how much index structure a search touched, and
``epoch_prunes`` counts candidates suppressed by epoch-based probing
(Algorithm 4) — subtrees on the R-tree, individual points on the filtering
backends — so Figure 8's ablation can be read straight off the counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.counters import CounterGroup


@dataclass
class IndexStats(CounterGroup):
    """Mutable operation counters for one spatial index.

    Plain attributes, so the R-tree can bump them inside its leaf loop;
    the field order is the rendering order of traces and sinks.
    """

    range_searches: int = 0
    nodes_accessed: int = 0
    entries_scanned: int = 0
    inserts: int = 0
    deletes: int = 0
    epoch_prunes: int = 0
