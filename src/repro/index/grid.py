"""Cell grid behind the rho2-DBSCAN, DBSTREAM and EDMStream baselines.

Space is tiled into hypercubes of side ``eps / sqrt(d)``, so any two points in
the same cell are within ``eps`` of each other (the standard grid trick from
Gan & Tao). Cells within reach of a query ball are enumerated through a
precomputed offset stencil.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

from repro.common.distance import eps_sq_bound, within_eps
from repro.common.errors import IndexError_
from repro.index.base import NeighborIndex
from repro.index.stats import IndexStats

Coords = tuple[float, ...]
CellKey = tuple[int, ...]


class GridIndex(NeighborIndex):
    """Uniform grid over points, sized for an epsilon-neighbourhood workload.

    Args:
        eps: the distance threshold the grid is tuned for; the cell side is
            ``eps / sqrt(dim)``.
        dim: dimensionality of the points; when omitted the grid stays
            dormant until the first insertion reveals it.
    """

    def __init__(
        self, eps: float, dim: int | None = None, stats: IndexStats | None = None
    ) -> None:
        if eps <= 0:
            raise IndexError_(f"eps must be positive, got {eps}")
        self.eps = eps
        self.dim = dim
        self.side: float | None = None
        self._stencil: list[CellKey] | None = None
        self._cells: dict[CellKey, dict[int, Coords]] = {}
        self._where: dict[int, CellKey] = {}
        self.stats = stats if stats is not None else IndexStats()
        if dim is not None:
            self._set_dim(dim)

    def _set_dim(self, dim: int) -> None:
        if dim < 1:
            raise IndexError_(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.side = self.eps / math.sqrt(dim)
        self._stencil = self._build_stencil()

    def _build_stencil(self) -> list[CellKey]:
        """Offsets of all cells that can contain a point within eps.

        A cell at offset ``o`` (in cell units) is reachable when the minimum
        distance between the two cells is at most eps, compared against
        :func:`eps_sq_bound` so that rounding never drops a reachable cell.
        """
        reach = math.ceil(math.sqrt(self.dim)) + 1
        bound = eps_sq_bound(self.eps)
        offsets = []
        for offset in itertools.product(range(-reach, reach + 1), repeat=self.dim):
            min_dist_sq = 0.0
            for o in offset:
                gap = (abs(o) - 1) * self.side
                if gap > 0:
                    min_dist_sq += gap * gap
            if min_dist_sq <= bound:
                offsets.append(offset)
        return offsets

    def cell_of(self, coords: Sequence[float]) -> CellKey:
        """Key of the cell containing ``coords``."""
        return tuple(int(math.floor(x / self.side)) for x in coords)

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, pid: int) -> bool:
        return pid in self._where

    def coords_of(self, pid: int) -> Coords:
        return self._cells[self._where[pid]][pid]

    def insert(self, pid: int, coords: Sequence[float]) -> None:
        if pid in self._where:
            raise IndexError_(f"point {pid} is already indexed")
        self.stats.inserts += 1
        coords = tuple(coords)
        if self.side is None:
            self._set_dim(len(coords))
        key = self.cell_of(coords)
        self._cells.setdefault(key, {})[pid] = coords
        self._where[pid] = key

    def delete(self, pid: int) -> None:
        key = self._where.pop(pid, None)
        if key is None:
            raise IndexError_(f"point {pid} is not indexed")
        self.stats.deletes += 1
        cell = self._cells[key]
        del cell[pid]
        if not cell:
            del self._cells[key]

    def items(self) -> list[tuple[int, Coords]]:
        return [
            (pid, self._cells[key][pid]) for pid, key in self._where.items()
        ]

    def cell_points(self, key: CellKey) -> dict[int, Coords]:
        """Points in one cell (empty dict when the cell is vacant)."""
        return self._cells.get(key, {})

    def neighbour_cells(self, key: CellKey) -> list[CellKey]:
        """Keys of occupied cells within eps-reach of ``key`` (self included)."""
        found = []
        cells = self._cells
        for offset in self._stencil:
            other = tuple(k + o for k, o in zip(key, offset))
            if other in cells:
                found.append(other)
        return found

    def occupied_cells(self) -> list[CellKey]:
        return list(self._cells)

    def ball(self, center: Sequence[float], radius: float) -> list[tuple[int, Coords]]:
        """All points within ``radius`` of ``center``.

        Only supported for ``radius <= eps`` (the stencil guarantees coverage
        up to eps); larger radii raise.
        """
        if radius > self.eps + 1e-12:
            raise IndexError_(
                f"grid built for eps={self.eps} cannot serve radius={radius}"
            )
        self.stats.range_searches += 1
        if self.side is None:  # dormant: nothing has ever been inserted
            return []
        center = tuple(center)
        results = []
        for key in self.neighbour_cells(self.cell_of(center)):
            cell = self._cells[key]
            self.stats.nodes_accessed += 1  # one occupied cell visited
            self.stats.entries_scanned += len(cell)
            for pid, coords in cell.items():
                if within_eps(coords, center, radius):
                    results.append((pid, coords))
        return results

