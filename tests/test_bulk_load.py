"""Unit tests for STR bulk loading of the R-tree."""

import random

import pytest

from repro.common.errors import IndexError_
from repro.index.linear import LinearScanIndex
from repro.index.rtree import RTree


def random_points(seed, n, dim=2):
    rng = random.Random(seed)
    return [
        (i, tuple(rng.uniform(0, 10) for _ in range(dim))) for i in range(n)
    ]


class TestBulkLoad:
    def test_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0
        assert tree.ball((0.0, 0.0), 1.0) == []

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 500])
    def test_sizes_and_invariants(self, n):
        tree = RTree.bulk_load(random_points(n, n))
        assert len(tree) == n
        tree.check_invariants()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_search_parity(self, dim):
        points = random_points(3, 400, dim)
        tree = RTree.bulk_load(points)
        oracle = LinearScanIndex()
        for pid, coords in points:
            oracle.insert(pid, coords)
        rng = random.Random(99)
        for _ in range(40):
            center = tuple(rng.uniform(0, 10) for _ in range(dim))
            got = sorted(p for p, _ in tree.ball(center, 1.5))
            want = sorted(p for p, _ in oracle.ball(center, 1.5))
            assert got == want

    def test_duplicate_pid_rejected(self):
        with pytest.raises(IndexError_):
            RTree.bulk_load([(1, (0.0, 0.0)), (1, (1.0, 1.0))])

    def test_dynamic_ops_after_bulk(self):
        points = random_points(5, 300)
        tree = RTree.bulk_load(points)
        for pid, _ in points[:150]:
            tree.delete(pid)
        tree.insert(9999, (5.0, 5.0))
        tree.check_invariants()
        assert 9999 in tree
        assert len(tree) == 151

    def test_epoch_probing_after_bulk(self):
        tree = RTree.bulk_load(random_points(7, 200))
        tick = tree.new_tick()
        first = {p for p, _ in tree.ball_unvisited((5.0, 5.0), 3.0, tick)}
        second = {p for p, _ in tree.ball_unvisited((5.0, 5.0), 3.0, tick)}
        assert first
        assert second == set()

    def test_packs_tighter_than_incremental(self):
        points = random_points(11, 2000)
        bulk = RTree.bulk_load(points)
        grown = RTree()
        for pid, coords in points:
            grown.insert(pid, coords)
        bulk.stats.reset()
        grown.stats.reset()
        rng = random.Random(1)
        for _ in range(50):
            center = (rng.uniform(0, 10), rng.uniform(0, 10))
            bulk.ball(center, 0.5)
            grown.ball(center, 0.5)
        assert bulk.stats.nodes_accessed <= grown.stats.nodes_accessed

    def test_usable_by_disc(self):
        # A pre-packed empty tree is a valid index.
        from repro.core.disc import DISC
        from tests.conftest import clustered_stream

        disc = DISC(0.7, 4, index=RTree.bulk_load([]))
        disc.advance(clustered_stream(1, 100), ())
        assert disc.snapshot().num_clusters >= 1
