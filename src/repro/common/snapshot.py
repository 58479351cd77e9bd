"""The common clustering result type reported by every method.

A :class:`Clustering` is a point-in-time view of the window: each point's
category (core / border / noise) and, for non-noise points, its cluster id.
All clusterers in this library — exact and approximate — can produce one, so
metrics and tests compare methods through this single type. It is held as
three pid-sorted columns, which DISC fills straight from its point store and
the CDC record, archive, served view and label writer read as they are.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Iterable, Mapping
from functools import cached_property

import numpy as np

from repro.common.canonical import canonical_json


class Category(enum.Enum):
    """The DBSCAN point categories; a category's code is its position here."""

    CORE = "core"
    BORDER = "border"
    NOISE = "noise"


CATEGORIES = tuple(Category)
CORE_CODE, BORDER_CODE, NOISE_CODE = range(len(CATEGORIES))
#: Category names by code, the form every wire and file format writes:
#: ``CATEGORY_NAMES[clustering.cat]`` is a column of names.
CATEGORY_NAMES = np.array([category.value for category in CATEGORIES], dtype=object)
_INT64 = np.iinfo(np.int64)


class Clustering:
    """An immutable snapshot of a clustering result.

    Three row-aligned, read-only numpy columns: ``pid`` (int64, ascending),
    ``label`` (int64, ``NOISE_ID`` for noise) and ``cat`` (int8 codes into
    :data:`CATEGORIES`). The mapping views :attr:`labels` and
    :attr:`categories` are built from them once, on first use.

    Args:
        labels: mapping of point id -> cluster id; noise points are absent
            (or mapped to ``NOISE_ID``).
        categories: mapping of point id -> :class:`Category`; must cover every
            point currently in the window.
    """

    NOISE_ID = -1

    def __init__(
        self,
        labels: Mapping[int, int],
        categories: Mapping[int, Category],
    ) -> None:
        pids = sorted(categories)
        self._take(
            np.array(pids, dtype=np.int64),
            np.array([labels.get(p, self.NOISE_ID) for p in pids], dtype=np.int64),
            np.array([CATEGORIES.index(categories[p]) for p in pids], dtype=np.int8),
        )

    @classmethod
    def from_columns(
        cls, pid: np.ndarray, label: np.ndarray, cat: np.ndarray
    ) -> "Clustering":
        """Take over, without copying, row-aligned columns sorted by ``pid``."""
        clustering = cls.__new__(cls)
        clustering._take(pid, label, cat)
        return clustering

    def _take(self, *columns: np.ndarray) -> None:
        for column in columns:
            column.flags.writeable = False
        self.pid, self.label, self.cat = columns

    def _row(self, pid: int) -> int | None:
        """Row of ``pid``, or ``None`` when it is not in the window."""
        if not _INT64.min <= pid <= _INT64.max:
            return None
        row = int(np.searchsorted(self.pid, pid))
        return row if row < len(self.pid) and self.pid[row] == pid else None

    @cached_property
    def labels(self) -> Mapping[int, int]:
        """Point id -> cluster id for every non-noise point."""
        clustered = self.label != self.NOISE_ID
        return dict(zip(self.pid[clustered].tolist(), self.label[clustered].tolist()))

    @cached_property
    def categories(self) -> Mapping[int, Category]:
        """Point id -> category for every point in the window."""
        return dict(zip(self.pid.tolist(), [CATEGORIES[c] for c in self.cat.tolist()]))

    def __contains__(self, pid: int) -> bool:
        return self._row(pid) is not None

    def label_of(self, pid: int) -> int:
        """Cluster id of ``pid``, or ``NOISE_ID`` when it is noise."""
        row = self._row(pid)
        return self.NOISE_ID if row is None else int(self.label[row])

    def category_of(self, pid: int) -> Category:
        """Category of ``pid``; unknown ids are reported as noise."""
        row = self._row(pid)
        return Category.NOISE if row is None else CATEGORIES[self.cat[row]]

    def clusters(self) -> dict[int, set[int]]:
        """Cluster id -> member point ids."""
        grouped: dict[int, set[int]] = defaultdict(set)
        for pid, cid in self.labels.items():
            grouped[cid].add(pid)
        return dict(grouped)

    def core_clusters(self) -> dict[int, frozenset[int]]:
        """Cluster id -> the *core* member points only.

        Border assignment is order-dependent in DBSCAN, so exactness
        comparisons are made on the core partition (see DESIGN.md §3.4).
        """
        cores = (self.cat == CORE_CODE) & (self.label != self.NOISE_ID)
        grouped: dict[int, set[int]] = defaultdict(set)
        for pid, cid in zip(self.pid[cores].tolist(), self.label[cores].tolist()):
            grouped[cid].add(pid)
        return {cid: frozenset(members) for cid, members in grouped.items()}

    @property
    def num_clusters(self) -> int:
        """Number of distinct clusters containing at least one core."""
        cores = (self.cat == CORE_CODE) & (self.label != self.NOISE_ID)
        return len(np.unique(self.label[cores]))

    @property
    def num_points(self) -> int:
        return len(self.pid)

    def count(self, category: Category) -> int:
        """Number of points in the given category."""
        return int(np.count_nonzero(self.cat == CATEGORIES.index(category)))

    def label_array(self, pids: Iterable[int]) -> list[int]:
        """Labels in the order of ``pids`` (noise as ``NOISE_ID``), for ARI."""
        return [self.label_of(pid) for pid in pids]

    def payload(self) -> dict:
        """The result as ``SNAPSHOT`` and ``AS_OF`` reply with it: ``labels``
        omits noise and lists cores, then borders, each in pid order;
        ``categories`` lists every point in pid order."""
        keys = [str(pid) for pid in self.pid.tolist()]
        rows = np.flatnonzero(self.label != self.NOISE_ID)
        rows = rows[np.argsort(self.cat[rows] != CORE_CODE, kind="stable")]
        return {
            "num_points": self.num_points,
            "num_clusters": self.num_clusters,
            "labels": dict(zip([keys[r] for r in rows.tolist()], self.label[rows].tolist())),
            "categories": dict(zip(keys, CATEGORY_NAMES[self.cat].tolist())),
        }

    def encode(self) -> bytes:
        """Canonical bytes of :meth:`payload`: results are byte-identical
        when these are."""
        return canonical_json(self.payload())

    def __repr__(self) -> str:
        return (
            f"Clustering(points={self.num_points}, clusters={self.num_clusters}, "
            f"cores={self.count(Category.CORE)}, noise={self.count(Category.NOISE)})"
        )
