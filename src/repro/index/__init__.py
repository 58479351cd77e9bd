"""Spatial indexes used by the clustering algorithms.

All backends implement the :class:`~repro.index.base.NeighborIndex` contract
(point primitives, counting, and the batched query layer) and are selectable
by name through :mod:`repro.index.registry`. Every backend decides "within
eps" as :func:`repro.common.distance.within_eps` does, so they return the
same balls. The R-tree (:mod:`repro.index.rtree`) is the index the paper
builds DISC on, including the native epoch-based probing of Section IV-B;
backends without native epochs gain the same semantics through
:class:`~repro.index.epochs.EpochAdapter`. The linear-scan index is a
brute-force oracle with the same interface, used by tests. The grid indexes
serve epsilon-tuned workloads (the plain grid also backs the
rho-double-approximate DBSCAN baseline; the vectorized grid batches distance
evaluations through numpy).
"""

from repro.index.base import NeighborIndex
from repro.index.epochs import EpochAdapter, with_epochs
from repro.index.grid import GridIndex
from repro.index.linear import LinearScanIndex
from repro.index.registry import (
    DEFAULT_INDEX,
    available_indexes,
    make_index,
    register_index,
    resolve_index,
)
from repro.index.rtree import RTree
from repro.index.stats import IndexStats
from repro.index.vectorgrid import VectorGridIndex

__all__ = [
    "DEFAULT_INDEX",
    "EpochAdapter",
    "GridIndex",
    "IndexStats",
    "LinearScanIndex",
    "NeighborIndex",
    "RTree",
    "VectorGridIndex",
    "available_indexes",
    "make_index",
    "register_index",
    "resolve_index",
    "with_epochs",
]
