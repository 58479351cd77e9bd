"""Shared primitives used across the DISC reproduction.

This package holds the small, dependency-free building blocks every other
subpackage relies on: point/record types, distance helpers, the disjoint-set
used for cluster-id algebra, configuration dataclasses, and the common
``Clustering`` snapshot type all clusterers report.
"""

from repro.common.config import ClusteringParams, WindowSpec
from repro.common.disjointset import DisjointSet
from repro.common.distance import within_eps, within_eps_many
from repro.common.errors import ConfigurationError, ReproError, StreamOrderError
from repro.common.snapshot import Category, Clustering

__all__ = [
    "Category",
    "Clustering",
    "ClusteringParams",
    "ConfigurationError",
    "DisjointSet",
    "ReproError",
    "StreamOrderError",
    "WindowSpec",
    "within_eps",
    "within_eps_many",
]
