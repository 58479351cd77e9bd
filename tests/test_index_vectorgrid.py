"""Unit tests for the numpy-vectorized grid index."""

import random

import pytest

from repro.common.errors import IndexError_
from repro.index.linear import LinearScanIndex
from repro.index.vectorgrid import VectorGridIndex


class TestVectorGrid:
    def test_construction_validation(self):
        with pytest.raises(IndexError_):
            VectorGridIndex(eps=0.0, dim=2)
        with pytest.raises(IndexError_):
            VectorGridIndex(eps=1.0, dim=0)

    def test_insert_delete_roundtrip(self):
        grid = VectorGridIndex(eps=1.0, dim=2)
        grid.insert(1, (0.3, 0.4))
        assert 1 in grid
        assert grid.coords_of(1) == (0.3, 0.4)
        grid.delete(1)
        assert len(grid) == 0
        grid.check_invariants()

    def test_duplicate_and_unknown(self):
        grid = VectorGridIndex(eps=1.0, dim=2)
        grid.insert(1, (0.0, 0.0))
        with pytest.raises(IndexError_):
            grid.insert(1, (1.0, 1.0))
        with pytest.raises(IndexError_):
            grid.delete(2)

    def test_radius_cap(self):
        grid = VectorGridIndex(eps=1.0, dim=2)
        with pytest.raises(IndexError_):
            grid.ball((0.0, 0.0), 1.5)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_linear_scan(self, dim):
        grid = VectorGridIndex(eps=1.0, dim=dim)
        oracle = LinearScanIndex()
        rng = random.Random(dim * 7)
        for pid in range(400):
            coords = tuple(rng.uniform(-4, 4) for _ in range(dim))
            grid.insert(pid, coords)
            oracle.insert(pid, coords)
        for _ in range(50):
            center = tuple(rng.uniform(-4, 4) for _ in range(dim))
            radius = rng.uniform(0.1, 1.0)
            got = sorted(p for p, _ in grid.ball(center, radius))
            want = sorted(p for p, _ in oracle.ball(center, radius))
            assert got == want
        grid.check_invariants()

    def test_matrix_cache_invalidation(self):
        grid = VectorGridIndex(eps=1.0, dim=2)
        grid.insert(1, (0.1, 0.1))
        assert [p for p, _ in grid.ball((0.0, 0.0), 0.5)] == [1]
        grid.insert(2, (0.2, 0.1))  # same cell: cache must refresh
        assert sorted(p for p, _ in grid.ball((0.0, 0.0), 0.5)) == [1, 2]
        grid.delete(1)
        assert [p for p, _ in grid.ball((0.0, 0.0), 0.5)] == [2]
        grid.check_invariants()

    def test_churn_workload(self):
        grid = VectorGridIndex(eps=0.8, dim=2)
        oracle = LinearScanIndex()
        rng = random.Random(3)
        alive = []
        next_pid = 0
        for step in range(800):
            if alive and rng.random() < 0.45:
                pid = alive.pop(rng.randrange(len(alive)))
                grid.delete(pid)
                oracle.delete(pid)
            else:
                coords = (rng.uniform(0, 6), rng.uniform(0, 6))
                grid.insert(next_pid, coords)
                oracle.insert(next_pid, coords)
                alive.append(next_pid)
                next_pid += 1
            if step % 100 == 0:
                center = (rng.uniform(0, 6), rng.uniform(0, 6))
                got = sorted(p for p, _ in grid.ball(center, 0.8))
                want = sorted(p for p, _ in oracle.ball(center, 0.8))
                assert got == want
        grid.check_invariants()

    def test_disc_runs_on_vector_grid(self):
        from repro.baselines.dbscan import SlidingDBSCAN
        from repro.core.disc import DISC
        from repro.metrics.compare import assert_equivalent
        from tests.conftest import clustered_stream

        eps, tau = 0.7, 4
        disc = DISC(
            eps,
            tau,
            index=VectorGridIndex(eps, 2),
            epoch_probing=False,
        )
        reference = SlidingDBSCAN(eps, tau)
        points = clustered_stream(33, 200)
        disc.advance(points, ())
        reference.advance(points, ())
        coords = {p.pid: p.coords for p in points}
        assert_equivalent(
            disc.snapshot(), reference.snapshot(), coords, disc.params
        )

    def test_items(self):
        grid = VectorGridIndex(eps=1.0, dim=2)
        grid.insert(1, (0.0, 0.0))
        grid.insert(2, (3.0, 3.0))
        assert sorted(grid.items()) == [(1, (0.0, 0.0)), (2, (3.0, 3.0))]

    def test_ball_pids_matches_ball(self):
        grid = VectorGridIndex(eps=1.0, dim=3)
        rng = random.Random(5)
        for pid in range(500):
            grid.insert(pid, tuple(rng.uniform(0, 4) for _ in range(3)))
        for _ in range(40):
            center = tuple(rng.uniform(0, 4) for _ in range(3))
            radius = rng.uniform(0.1, 1.0)
            assert grid.ball_pids(center, radius).tolist() == [
                pid for pid, _ in grid.ball(center, radius)
            ]

    def test_ball_pids_radius_cap(self):
        grid = VectorGridIndex(eps=1.0, dim=2)
        with pytest.raises(IndexError_):
            grid.ball_pids((0.0, 0.0), 2.0)
        with pytest.raises(IndexError_):
            grid.ball_many_pids([(0.0, 0.0)], 2.0)

    def test_ball_pids_empty(self):
        grid = VectorGridIndex(eps=1.0, dim=2)
        assert grid.ball_pids((0.0, 0.0), 1.0).tolist() == []
