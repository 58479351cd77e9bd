"""Exactness comparison between clusterings (DESIGN.md §3.4).

DBSCAN's border assignment is order-dependent, so "identical results" is
checked as the strongest order-independent contract:

1. the two clusterings agree on every point's *category* (core/border/noise);
2. the partitions of **core** points are identical up to cluster renaming;
3. every border point is assigned to a cluster that contains at least one
   core within epsilon of it, in *both* clusterings, and the two assigned
   clusters correspond whenever the border has cores of only one cluster
   nearby.

Condition 3's escape hatch only applies to borders sitting within epsilon of
cores from two different clusters — the one genuinely ambiguous case.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import ClusteringParams
from repro.common.distance import within_eps
from repro.common.errors import ReproError
from repro.common.snapshot import BORDER_CODE, CATEGORY_NAMES, CORE_CODE, Clustering

Coords = tuple[float, ...]


class EquivalenceError(ReproError):
    """Raised by :func:`assert_equivalent` with a human-readable reason."""


def assert_equivalent(
    a: Clustering,
    b: Clustering,
    points: dict[int, Coords],
    params: ClusteringParams,
) -> None:
    """Raise :class:`EquivalenceError` unless ``a`` and ``b`` are equivalent.

    Args:
        a, b: the clusterings to compare (e.g. DISC vs DBSCAN).
        points: coordinates of every point in the window, used to validate
            border assignments.
        params: the thresholds both clusterings were computed with.
    """
    if not np.array_equal(a.pid, b.pid):
        raise EquivalenceError(
            f"point sets differ: only-in-a={np.setdiff1d(a.pid, b.pid)[:5].tolist()}, "
            f"only-in-b={np.setdiff1d(b.pid, a.pid)[:5].tolist()}"
        )
    # The columns are pid-sorted, so equal pids align their rows.
    for row in np.flatnonzero(a.cat != b.cat)[:1].tolist():
        raise EquivalenceError(
            f"category mismatch for {a.pid[row]}: "
            f"{CATEGORY_NAMES[a.cat[row]]} vs {CATEGORY_NAMES[b.cat[row]]}"
        )

    mapping = _match_core_partitions(a, b)

    # Border validity and correspondence.
    border = a.cat == BORDER_CODE
    for pid, cid_a, cid_b in zip(
        a.pid[border].tolist(), a.label[border].tolist(), b.label[border].tolist()
    ):
        nearby = _nearby_core_clusters(pid, a, points, params)
        if cid_a not in nearby:
            raise EquivalenceError(
                f"border {pid} assigned by a to cluster {cid_a} with no "
                f"adjacent core (nearby clusters: {sorted(nearby)})"
            )
        if mapping[cid_a] != cid_b and len(nearby) == 1:
            raise EquivalenceError(
                f"border {pid} unambiguously belongs to a-cluster {cid_a} "
                f"(= b-cluster {mapping[cid_a]}) but b assigned {cid_b}"
            )
        if mapping[cid_a] != cid_b:
            # Ambiguous border: b's choice must still be one of the clusters
            # with an adjacent core.
            valid_b = {mapping[c] for c in nearby}
            if cid_b not in valid_b:
                raise EquivalenceError(
                    f"border {pid} assigned by b to {cid_b}, not adjacent to "
                    f"any of its nearby clusters"
                )


def _match_core_partitions(a: Clustering, b: Clustering) -> dict[int, int]:
    """Build the a-cluster -> b-cluster bijection over core points."""
    clusters_a = a.core_clusters()
    clusters_b = b.core_clusters()
    if len(clusters_a) != len(clusters_b):
        raise EquivalenceError(
            f"core cluster counts differ: {len(clusters_a)} vs {len(clusters_b)}"
        )
    members_to_b = {members: cid for cid, members in clusters_b.items()}
    mapping: dict[int, int] = {}
    for cid_a, members in clusters_a.items():
        cid_b = members_to_b.get(members)
        if cid_b is None:
            sample = sorted(members)[:5]
            raise EquivalenceError(
                f"a-cluster {cid_a} (cores {sample}...) has no matching "
                f"core set in b"
            )
        mapping[cid_a] = cid_b
    return mapping


def _nearby_core_clusters(
    pid: int,
    clustering: Clustering,
    points: dict[int, Coords],
    params: ClusteringParams,
) -> set[int]:
    """Clusters (by a-side id) having a core within eps of ``pid``."""
    core = clustering.cat == CORE_CODE
    cores = zip(clustering.pid[core].tolist(), clustering.label[core].tolist())
    return {
        cid
        for qid, cid in cores
        if qid != pid and within_eps(points[pid], points[qid], params.eps)
    }


def equivalent(
    a: Clustering,
    b: Clustering,
    points: dict[int, Coords],
    params: ClusteringParams,
) -> bool:
    """Boolean form of :func:`assert_equivalent`."""
    try:
        assert_equivalent(a, b, points, params)
    except EquivalenceError:
        return False
    return True
