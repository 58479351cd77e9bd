"""Spatial indexes used by the clustering algorithms.

All backends implement the :class:`~repro.index.base.NeighborIndex` contract
(point primitives and the ids-only batched query layer) and are selectable
by name through :mod:`repro.index.registry`. Every backend decides "within
eps" as :func:`repro.common.distance.within_eps` does, so they return the
same balls. The R-tree (:mod:`repro.index.rtree`) is the index the paper
builds DISC on, including the native epoch-based probing of Section IV-B.
The linear-scan index is a brute-force oracle with the same interface (and
the same epochs), used by tests. The numpy grid (:mod:`repro.index.vectorgrid`)
serves eps-tuned workloads; it has no epochs, so DISC probes it with plain
balls. :class:`~repro.index.grid.GridIndex` is not a DISC backend: it is the
cell grid behind the rho-double-approximate DBSCAN, DBSTREAM and EDMStream
baselines.
"""

from repro.index.base import NeighborIndex
from repro.index.grid import GridIndex
from repro.index.linear import LinearScanIndex
from repro.index.registry import DEFAULT_INDEX, available_indexes, make_index
from repro.index.rtree import RTree
from repro.index.stats import IndexStats
from repro.index.vectorgrid import VectorGridIndex

__all__ = [
    "DEFAULT_INDEX",
    "GridIndex",
    "IndexStats",
    "LinearScanIndex",
    "NeighborIndex",
    "RTree",
    "VectorGridIndex",
    "available_indexes",
    "make_index",
]
