"""The paper's primary contribution: the DISC incremental clusterer.

Submodules follow the paper's structure: :mod:`repro.core.collect` is the
COLLECT step (Algorithm 1), :mod:`repro.core.cluster` is the CLUSTER step
(Algorithm 2), :mod:`repro.core.msbfs` is Multi-Starter BFS (Algorithm 3),
and :mod:`repro.core.disc` ties them together behind the public
:class:`~repro.core.disc.DISC` class.
"""

from repro.core.disc import DISC
from repro.core.events import EvolutionEvent, EvolutionKind, StrideSummary
from repro.core.store import PointStore
from repro.core.tracker import ClusterTracker, Lineage

__all__ = [
    "DISC",
    "ClusterTracker",
    "EvolutionEvent",
    "EvolutionKind",
    "Lineage",
    "PointStore",
    "StrideSummary",
]
