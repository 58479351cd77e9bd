"""A numpy-vectorized cell-grid index for dense, large windows.

Cells here have side ``eps``, a hair wider (``_SIDE_SLACK``), unlike
:class:`~repro.index.grid.GridIndex`'s ``eps / sqrt(d)``, so a ball query
touches only the 3^d surrounding cells and each cell contributes one
vectorized distance evaluation over a sizeable batch.

An honest performance note, measured on this substrate: for :meth:`ball`
(which must materialise a Python list of ``(pid, coords)`` matches) the
result-building loop dominates and the vectorized index only breaks even
with the plain grid. Vectorization pays on the ids-only queries the core
issues: :meth:`ball_many_pids` answers a whole batch of centres in one numpy
expression, and :meth:`ball_pids` answers one MS-BFS probe in a handful of
numpy calls. The invariant checker counts through the batched path too.
Every distance test goes through
:func:`~repro.common.distance.within_eps_many`.

The interface matches the other indexes (insert/delete/ball/coords_of/...),
so any clusterer accepts it via ``index=``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from repro.common.distance import within_eps_many
from repro.common.errors import IndexError_
from repro.index.base import NeighborIndex
from repro.index.stats import IndexStats

Coords = tuple[float, ...]
CellKey = tuple[int, ...]

# Cap on the pairwise-distance block a batched query materialises at once
# (centers x candidates); groups larger than this are chunked.
_BATCH_PAIR_BUDGET = 1 << 20

# Cell side over eps. With side exactly eps, rounding in floor(x / side)
# could put two points at exactly eps two cells apart, outside each other's
# stencil. Points within eps differ by at most eps * (1 + 2**-51) on any
# axis and floor(x / side) rounds by at most |x / side| * 2**-53 cells, so
# cells 2**-20 wider keep every neighbour inside the 3^d stencil for |x| up
# to about 2**30 * eps.
_SIDE_SLACK = 1.0 + 2.0**-20

# Bits per dimension when packing a cell key into one int64 (dims 1-3).
_CODE_BITS = 21
_CODE_OFF = 1 << (_CODE_BITS - 1)


class _Cell:
    """One occupied cell: a point dict plus a lazily built matrix."""

    __slots__ = ("points", "pids", "pid_arr", "matrix", "dirty")

    def __init__(self) -> None:
        self.points: dict[int, Coords] = {}
        self.pids: list[int] = []
        self.pid_arr: np.ndarray | None = None
        self.matrix: np.ndarray | None = None
        self.dirty = True

    def refresh(self) -> None:
        if not self.dirty:
            return
        self.pids = list(self.points)
        self.pid_arr = np.fromiter(self.pids, dtype=np.int64, count=len(self.pids))
        self.matrix = np.array(
            [self.points[pid] for pid in self.pids], dtype=np.float64
        )
        self.dirty = False


class VectorGridIndex(NeighborIndex):
    """Vectorized uniform grid tuned for one epsilon.

    Args:
        eps: the distance threshold (and, widened by a hair, cell side).
        dim: point dimensionality; when omitted the 3^d stencil is built
            lazily from the first inserted point (registry-built grids do
            not know the dimensionality up front).
    """

    def __init__(
        self, eps: float, dim: int | None = None, stats: IndexStats | None = None
    ) -> None:
        if eps <= 0:
            raise IndexError_(f"eps must be positive, got {eps}")
        self.eps = eps
        self.dim = dim
        self.side = eps * _SIDE_SLACK
        self._cells: dict[CellKey, _Cell] = {}
        self._where: dict[int, CellKey] = {}
        # Insertion-ordered pid -> coords mirror; the flat rebuild reads it
        # with one bulk np.array instead of walking every cell.
        self._coords: dict[int, Coords] = {}
        # Concatenated 3^d neighbourhoods keyed by cell, reused by the
        # batched ids-only queries. Invalidation is precise: a mutation in
        # cell K pops only the hoods whose stencil covers K (K's own 3^d
        # neighbours), so hoods over stable regions survive entire strides.
        self._hoods: dict[CellKey, tuple] = {}
        # Flat sorted-by-cell-code arrays backing the fully vectorized
        # batched path; rebuilt lazily after any mutation.
        self._flat: tuple | None = None
        self.stats = stats if stats is not None else IndexStats()
        # With side == eps, any point within eps of the query lies in one of
        # the 3^d surrounding cells.
        self._stencil: list[CellKey] | None = None
        self._shift_list: list[int] | None = None
        self._shifts: np.ndarray | None = None
        self._deltas: np.ndarray | None = None
        if dim is not None:
            self._set_dim(dim)

    def _set_dim(self, dim: int) -> None:
        if dim < 1:
            raise IndexError_(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._stencil = list(itertools.product((-1, 0, 1), repeat=dim))
        # Packed-code machinery for the flat batched path (dims 1-3): cell
        # keys pack into one int64, 21 bits per dimension, so a stencil
        # neighbour's code is the center's code plus a constant delta and a
        # whole batch of stencil walks collapses into one vectorized add.
        if dim <= 3:
            shifts = [1 << (_CODE_BITS * (dim - 1 - i)) for i in range(dim)]
            self._shift_list = shifts
            self._shifts = np.asarray(shifts, dtype=np.int64)
            self._deltas = np.asarray(
                [
                    sum(o * s for o, s in zip(offset, shifts))
                    for offset in self._stencil
                ],
                dtype=np.int64,
            )
        else:
            self._shift_list = None
            self._shifts = None
            self._deltas = None

    def cell_of(self, coords: Sequence[float]) -> CellKey:
        return tuple(int(math.floor(x / self.side)) for x in coords)

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, pid: int) -> bool:
        return pid in self._where

    def coords_of(self, pid: int) -> Coords:
        return self._coords[pid]

    def insert(self, pid: int, coords: Sequence[float]) -> None:
        if pid in self._where:
            raise IndexError_(f"point {pid} is already indexed")
        self.stats.inserts += 1
        coords = tuple(coords)
        if self._stencil is None:
            self._set_dim(len(coords))
        key = self.cell_of(coords)
        cell = self._cells.get(key)
        if cell is None:
            cell = _Cell()
            self._cells[key] = cell
        cell.points[pid] = coords
        cell.dirty = True
        self._invalidate_hoods(key)
        self._flat = None
        self._where[pid] = key
        self._coords[pid] = coords

    def delete(self, pid: int) -> None:
        key = self._where.pop(pid, None)
        if key is None:
            raise IndexError_(f"point {pid} is not indexed")
        self.stats.deletes += 1
        self._invalidate_hoods(key)
        self._flat = None
        del self._coords[pid]
        cell = self._cells[key]
        del cell.points[pid]
        if cell.points:
            cell.dirty = True
        else:
            del self._cells[key]

    def ball(self, center: Sequence[float], radius: float) -> list[tuple[int, Coords]]:
        """All points within ``radius`` of ``center`` (radius <= eps)."""
        if radius > self.eps + 1e-12:
            raise IndexError_(
                f"grid built for eps={self.eps} cannot serve radius={radius}"
            )
        self.stats.range_searches += 1
        if self._stencil is None:  # dormant: nothing has ever been inserted
            return []
        center_arr = np.asarray(center, dtype=np.float64)
        key = self.cell_of(center)
        results: list[tuple[int, Coords]] = []
        cells = self._cells
        for offset in self._stencil:
            other = tuple(k + o for k, o in zip(key, offset))
            cell = cells.get(other)
            if cell is None:
                continue
            cell.refresh()
            self.stats.nodes_accessed += 1  # one occupied cell visited
            self.stats.entries_scanned += len(cell.pids)
            mask = within_eps_many(cell.matrix, center_arr, radius)
            points = cell.points
            for idx in np.nonzero(mask)[0]:
                pid = cell.pids[idx]
                results.append((pid, points[pid]))
        return results

    def _invalidate_hoods(self, key: CellKey) -> None:
        """Drop every cached neighbourhood whose stencil covers ``key``."""
        hoods = self._hoods
        if not hoods:
            return
        pop = hoods.pop
        for offset in self._stencil:
            pop(tuple(k + o for k, o in zip(key, offset)), None)

    def _hood(self, key: CellKey) -> tuple:
        """The concatenated 3^d neighbourhood of ``key``, cached until a
        mutation lands in one of its cells: ``(block, cand, n_cells,
        n_entries)`` with the candidate matrix, the matching pid array, and
        the occupied-cell / entry totals the stats ledger charges per
        visiting center."""
        hood = self._hoods.get(key)
        if hood is None:
            mats = []
            pid_arrs = []
            n_cells = n_entries = 0
            cells = self._cells
            for offset in self._stencil:
                cell = cells.get(tuple(k + o for k, o in zip(key, offset)))
                if cell is None:
                    continue
                cell.refresh()
                mats.append(cell.matrix)
                pid_arrs.append(cell.pid_arr)
                n_cells += 1
                n_entries += len(cell.pids)
            if not mats:
                hood = (None, None, 0, 0)
            else:
                block = mats[0] if len(mats) == 1 else np.concatenate(mats)
                cand = (
                    pid_arrs[0]
                    if len(pid_arrs) == 1
                    else np.concatenate(pid_arrs)
                )
                hood = (block, cand, n_cells, n_entries)
            self._hoods[key] = hood
        return hood

    def _refresh_flat(self) -> None:
        """Rebuild the flat packed-code layout after mutations.

        Cells are laid out contiguously in ascending packed-code order:
        ``codes[j]`` owns rows ``starts[j]:starts[j + 1]`` of the flat pid
        and coordinate arrays, preserving each cell's insertion order. Keys
        outside the packable range mark the layout unusable and the batched
        query falls back to the grouped path.
        """
        if self._deltas is None:  # dim > 3: codes do not fit one int64
            self._flat = (False,)
            return
        n = len(self._coords)
        if n == 0:
            self._flat = (
                True,
                np.empty(0, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty((0, self.dim or 1), dtype=np.float64),
            )
            return
        pids = np.fromiter(self._coords.keys(), dtype=np.int64, count=n)
        coords = np.array(list(self._coords.values()), dtype=np.float64)
        keys = np.floor(coords / self.side).astype(np.int64)
        if int(np.abs(keys).max()) > _CODE_OFF - 2:
            self._flat = (False,)
            return
        codes_all = (keys + _CODE_OFF) @ self._shifts
        # The stable sort keeps same-cell points in insertion order — the
        # order :meth:`ball` reports them in.
        order = np.argsort(codes_all, kind="stable")
        sorted_codes = codes_all[order]
        first = np.concatenate(
            ([0], np.nonzero(np.diff(sorted_codes))[0] + 1)
        )
        starts = np.concatenate((first, [n]))
        self._flat = (
            True, sorted_codes[first], starts, pids[order], coords[order]
        )

    def ball_many_pids(
        self, centers: Sequence[Sequence[float]], radius: float
    ) -> list[np.ndarray]:
        """Ids-only batch ball search; per-center pids match :meth:`ball`.

        The whole batch runs as one numpy expression over the flat packed
        layout: cell keys pack into int64 codes, every center's 3^d stencil
        walk becomes one broadcast add against :attr:`_deltas`, occupied
        neighbours resolve via one ``searchsorted`` against the sorted cell
        codes, and a single ragged gather + distance mask yields every
        match. No per-cell or per-center Python work remains. Dimensions
        above 3 (or coordinates past the packable range) use the grouped
        neighbourhood-cache path instead; results and stats totals are
        identical either way, and both match per-center :meth:`ball` loops.
        """
        if radius > self.eps + 1e-12:
            raise IndexError_(
                f"grid built for eps={self.eps} cannot serve radius={radius}"
            )
        empty = np.empty(0, dtype=np.int64)
        m = len(centers)
        if self._stencil is None or not m:
            self.stats.range_searches += m
            return [empty] * m
        if self._deltas is None:
            return self._ball_many_pids_grouped(centers, radius)
        if self._flat is None:
            self._refresh_flat()
        flat = self._flat
        if not flat[0]:
            return self._ball_many_pids_grouped(centers, radius)
        _, codes, starts, pids, coords = flat
        arr = np.asarray(centers, dtype=np.float64)
        keys = np.floor(arr / self.side).astype(np.int64)
        if len(keys) and int(np.abs(keys).max()) > _CODE_OFF - 2:
            return self._ball_many_pids_grouped(centers, radius)
        stats = self.stats
        stats.range_searches += m
        n_codes = len(codes)
        if n_codes == 0:
            return [empty] * m
        center_codes = (keys + _CODE_OFF) @ self._shifts
        neigh = (center_codes[:, None] + self._deltas[None, :]).ravel()
        idx = np.searchsorted(codes, neigh)
        idx_c = np.minimum(idx, n_codes - 1)
        valid = (idx < n_codes) & (codes[idx_c] == neigh)
        cnt = np.where(valid, starts[idx_c + 1] - starts[idx_c], 0)
        total = int(cnt.sum())
        stats.nodes_accessed += int(np.count_nonzero(valid))
        stats.entries_scanned += total
        if total == 0:
            return [empty] * m
        # Ragged gather: for every (center, occupied neighbour) segment,
        # enumerate that cell's flat rows in order.
        seg_ends = np.cumsum(cnt)
        cellstart = np.where(valid, starts[idx_c], 0)
        cand_idx = (
            np.arange(total, dtype=np.int64)
            - np.repeat(seg_ends - cnt, cnt)
            + np.repeat(cellstart, cnt)
        )
        owner = np.repeat(
            np.arange(m, dtype=np.int64), cnt.reshape(m, -1).sum(axis=1)
        )
        within = within_eps_many(coords[cand_idx], arr[owner], radius)
        match_pids = pids[cand_idx[within]]
        bounds = np.searchsorted(owner[within], np.arange(m + 1))
        return [match_pids[bounds[i] : bounds[i + 1]] for i in range(m)]

    def ball_pids(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Ids-only single ball over the flat packed layout.

        The per-call cost is a handful of numpy ops regardless of how many
        cells the stencil covers — this is what keeps MS-BFS expansions
        (which are inherently sequential and cannot batch) cheap on the
        columnar path. Pids come back in exact :meth:`ball` order.
        """
        if radius > self.eps + 1e-12:
            raise IndexError_(
                f"grid built for eps={self.eps} cannot serve radius={radius}"
            )
        if self._stencil is None:
            self.stats.range_searches += 1
            return np.empty(0, dtype=np.int64)
        if self._deltas is None:
            return super().ball_pids(center, radius)
        if self._flat is None:
            self._refresh_flat()
        flat = self._flat
        if not flat[0]:
            return super().ball_pids(center, radius)
        key = self.cell_of(center)
        if any(abs(k) > _CODE_OFF - 2 for k in key):
            return super().ball_pids(center, radius)
        _, codes, starts, pids, coords = flat
        stats = self.stats
        stats.range_searches += 1
        n_codes = len(codes)
        if n_codes == 0:
            return np.empty(0, dtype=np.int64)
        code = 0
        for k, s in zip(key, self._shift_list):
            code += (k + _CODE_OFF) * s
        neigh = code + self._deltas
        idx = np.searchsorted(codes, neigh)
        idx_c = np.minimum(idx, n_codes - 1)
        valid = (idx < n_codes) & (codes[idx_c] == neigh)
        cnt = np.where(valid, starts[idx_c + 1] - starts[idx_c], 0)
        total = int(cnt.sum())
        stats.nodes_accessed += int(np.count_nonzero(valid))
        stats.entries_scanned += total
        if total == 0:
            return np.empty(0, dtype=np.int64)
        seg_ends = np.cumsum(cnt)
        cand_idx = (
            np.arange(total, dtype=np.int64)
            - np.repeat(seg_ends - cnt, cnt)
            + np.repeat(np.where(valid, starts[idx_c], 0), cnt)
        )
        return pids[cand_idx[within_eps_many(coords[cand_idx], center, radius)]]

    def _ball_many_pids_grouped(
        self, centers: Sequence[Sequence[float]], radius: float
    ) -> list[np.ndarray]:
        """Grouped fallback for :meth:`ball_many_pids` (dim > 3 / overflow).

        Centers sharing a cell compress that cell's cached neighbourhood
        (:meth:`_hood`) with one distance mask each; candidate tuples are
        never built.
        """
        empty = np.empty(0, dtype=np.int64)
        out: list[np.ndarray] = [empty] * len(centers)
        self.stats.range_searches += len(centers)
        arr = np.asarray(centers, dtype=np.float64)
        groups: dict[CellKey, list[int]] = {}
        for i, center in enumerate(centers):
            groups.setdefault(self.cell_of(center), []).append(i)
        stats = self.stats
        for key, idxs in groups.items():
            block, cand, n_cells, n_entries = self._hood(key)
            stats.nodes_accessed += n_cells * len(idxs)
            stats.entries_scanned += n_entries * len(idxs)
            if block is None:
                continue
            step = max(1, _BATCH_PAIR_BUDGET // max(1, len(block)))
            for lo in range(0, len(idxs), step):
                chunk = idxs[lo : lo + step]
                within = within_eps_many(arr[chunk, None], block, radius)
                for row, i in enumerate(chunk):
                    out[i] = cand[within[row]]
        return out

    def items(self) -> list[tuple[int, Coords]]:
        return list(self._coords.items())

    def check_invariants(self) -> None:
        """Consistency of the cell maps and matrix caches."""
        total = 0
        for key, cell in self._cells.items():
            assert cell.points, f"empty cell {key} not pruned"
            total += len(cell.points)
            for pid, coords in cell.points.items():
                assert self._where[pid] == key
                assert self.cell_of(coords) == key
            if not cell.dirty:
                assert cell.matrix is not None
                assert len(cell.pids) == len(cell.points)
        assert total == len(self._where)
        for key, (block, cand, n_cells, n_entries) in self._hoods.items():
            fresh_cells = fresh_entries = 0
            for offset in self._stencil:
                cell = self._cells.get(tuple(k + o for k, o in zip(key, offset)))
                if cell is not None:
                    fresh_cells += 1
                    fresh_entries += len(cell.points)
            assert (n_cells, n_entries) == (fresh_cells, fresh_entries), (
                f"stale neighbourhood cache for cell {key}"
            )
            assert (block is None) == (n_entries == 0)
            assert block is None or len(block) == len(cand) == n_entries
        if self._flat is not None and self._flat[0]:
            _, codes, starts, pids, coords = self._flat
            assert len(codes) == len(self._cells), "stale flat layout"
            assert np.all(np.diff(codes) > 0), "flat cell codes not sorted"
            assert starts[-1] == len(pids) == len(coords) == len(self._where)
            assert set(pids.tolist()) == set(self._where)
