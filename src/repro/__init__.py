"""DISC: density-based incremental clustering by striding over streaming data.

A from-scratch reproduction of Kim, Koo, Kim, Moon (ICDE 2021). The headline
export is :class:`~repro.core.disc.DISC`, an exact incremental DBSCAN-family
clusterer for sliding windows; every comparison method of the paper's
evaluation ships alongside it (see :mod:`repro.baselines`), together with the
window machinery, spatial indexes, dataset simulators, metrics, and the
benchmark harness that regenerates each figure and table.

Quickstart:
    >>> from repro import DISC, WindowSpec, drive
    >>> from repro.datasets import maze_stream
    >>> points, truth = maze_stream(3000)
    >>> result = drive(DISC(eps=0.8, tau=4), points, WindowSpec(1000, 100))
    >>> len(result.measurements)
    30
"""

from repro._version import __version__
from repro.api import cluster_static, cluster_stream
from repro.baselines import (
    DBStream,
    EDMStream,
    ExtraN,
    IncrementalDBSCAN,
    RhoDoubleApproxDBSCAN,
    SlidingDBSCAN,
)
from repro.common import Category, Clustering, ClusteringParams, WindowSpec
from repro.common.points import StreamPoint
from repro.core import (
    DISC,
    ClusterTracker,
    EvolutionEvent,
    EvolutionKind,
    Lineage,
    StrideSummary,
)
from repro.index import (
    GridIndex,
    LinearScanIndex,
    NeighborIndex,
    RTree,
    VectorGridIndex,
    available_indexes,
    make_index,
)
from repro.metrics import (
    adjusted_rand_index,
    assert_equivalent,
    equivalent,
    suggest_eps,
    suggest_tau,
)
from repro.monitoring import AnomalyMonitor, AnomalyReport, runtime_report
from repro.runtime import (
    CheckpointStore,
    DeadLetterSink,
    FaultPolicy,
    RuntimeStats,
    Supervisor,
)
from repro.window import SlidingWindow, drive, drive_supervised, replay

__all__ = [
    "__version__",
    "AnomalyMonitor",
    "AnomalyReport",
    "CheckpointStore",
    "DISC",
    "DeadLetterSink",
    "FaultPolicy",
    "RuntimeStats",
    "Supervisor",
    "Category",
    "ClusterTracker",
    "Clustering",
    "ClusteringParams",
    "DBStream",
    "EDMStream",
    "EvolutionEvent",
    "EvolutionKind",
    "ExtraN",
    "GridIndex",
    "IncrementalDBSCAN",
    "Lineage",
    "LinearScanIndex",
    "NeighborIndex",
    "RTree",
    "VectorGridIndex",
    "RhoDoubleApproxDBSCAN",
    "SlidingDBSCAN",
    "SlidingWindow",
    "StreamPoint",
    "StrideSummary",
    "WindowSpec",
    "adjusted_rand_index",
    "assert_equivalent",
    "available_indexes",
    "cluster_static",
    "cluster_stream",
    "make_index",
    "drive",
    "drive_supervised",
    "equivalent",
    "replay",
    "runtime_report",
    "suggest_eps",
    "suggest_tau",
]
