"""Unit tests for the R-tree: structure, searches, epochs, deletions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IndexError_
from repro.index.linear import LinearScanIndex
from repro.index.rtree import RTree


def random_points(seed, n, dim=2, span=10.0):
    rng = random.Random(seed)
    return [
        (i, tuple(rng.uniform(0.0, span) for _ in range(dim))) for i in range(n)
    ]


class TestBasics:
    def test_empty(self):
        tree = RTree()
        assert len(tree) == 0
        assert 5 not in tree
        assert tree.ball((0.0, 0.0), 1.0) == []

    def test_insert_and_contains(self):
        tree = RTree()
        tree.insert(1, (0.5, 0.5))
        assert 1 in tree
        assert len(tree) == 1
        assert tree.coords_of(1) == (0.5, 0.5)

    def test_duplicate_insert_rejected(self):
        tree = RTree()
        tree.insert(1, (0.0, 0.0))
        with pytest.raises(IndexError_):
            tree.insert(1, (1.0, 1.0))

    def test_delete_unknown_rejected(self):
        with pytest.raises(IndexError_):
            RTree().delete(99)

    def test_bad_fanout_rejected(self):
        with pytest.raises(IndexError_):
            RTree(max_entries=4, min_entries=3)

    def test_items_roundtrip(self):
        tree = RTree()
        pts = random_points(0, 50)
        for pid, coords in pts:
            tree.insert(pid, coords)
        assert sorted(tree.items()) == sorted(pts)

    def test_height_grows(self):
        tree = RTree()
        for pid, coords in random_points(1, 200):
            tree.insert(pid, coords)
        assert tree.height() >= 2
        tree.check_invariants()


class TestBallSearch:
    def test_matches_linear_scan(self):
        tree = RTree()
        oracle = LinearScanIndex()
        rng = random.Random(7)
        for pid, coords in random_points(2, 400):
            tree.insert(pid, coords)
            oracle.insert(pid, coords)
        for _ in range(100):
            center = (rng.uniform(0, 10), rng.uniform(0, 10))
            radius = rng.uniform(0.1, 3.0)
            got = sorted(p for p, _ in tree.ball(center, radius))
            want = sorted(p for p, _ in oracle.ball(center, radius))
            assert got == want

    def test_inclusive_boundary(self):
        tree = RTree()
        tree.insert(1, (1.0, 0.0))
        assert [p for p, _ in tree.ball((0.0, 0.0), 1.0)] == [1]

    def test_search_counts_in_stats(self):
        tree = RTree()
        tree.insert(1, (0.0, 0.0))
        tree.ball((0.0, 0.0), 1.0)
        tree.ball((5.0, 5.0), 1.0)
        assert tree.stats.range_searches == 2

    def test_3d(self):
        tree = RTree()
        oracle = LinearScanIndex()
        rng = random.Random(11)
        for pid, coords in random_points(3, 300, dim=3):
            tree.insert(pid, coords)
            oracle.insert(pid, coords)
        for _ in range(50):
            center = tuple(rng.uniform(0, 10) for _ in range(3))
            got = sorted(p for p, _ in tree.ball(center, 2.0))
            want = sorted(p for p, _ in oracle.ball(center, 2.0))
            assert got == want


class TestDeletion:
    def test_delete_removes(self):
        tree = RTree()
        for pid, coords in random_points(4, 100):
            tree.insert(pid, coords)
        tree.delete(50)
        assert 50 not in tree
        assert len(tree) == 99
        assert 50 not in {p for p, _ in tree.ball(tree.coords_of(0), 100.0)}

    def test_delete_all_then_reuse(self):
        tree = RTree()
        pts = random_points(5, 120)
        for pid, coords in pts:
            tree.insert(pid, coords)
        for pid, _ in pts:
            tree.delete(pid)
        assert len(tree) == 0
        tree.check_invariants()
        tree.insert(999, (1.0, 1.0))
        assert [p for p, _ in tree.ball((1.0, 1.0), 0.1)] == [999]

    def test_interleaved_workload_keeps_invariants(self):
        tree = RTree()
        oracle = LinearScanIndex()
        rng = random.Random(9)
        alive = []
        next_pid = 0
        for step in range(1500):
            if alive and rng.random() < 0.45:
                pid = alive.pop(rng.randrange(len(alive)))
                tree.delete(pid)
                oracle.delete(pid)
            else:
                coords = (rng.uniform(0, 10), rng.uniform(0, 10))
                tree.insert(next_pid, coords)
                oracle.insert(next_pid, coords)
                alive.append(next_pid)
                next_pid += 1
            if step % 250 == 0:
                tree.check_invariants()
                center = (rng.uniform(0, 10), rng.uniform(0, 10))
                got = sorted(p for p, _ in tree.ball(center, 1.5))
                want = sorted(p for p, _ in oracle.ball(center, 1.5))
                assert got == want
        tree.check_invariants()


class TestEpochProbing:
    def test_unvisited_never_returns_twice(self):
        tree = RTree()
        for pid, coords in random_points(6, 300):
            tree.insert(pid, coords)
        tick = tree.new_tick()
        rng = random.Random(13)
        seen = set()
        for _ in range(80):
            center = (rng.uniform(0, 10), rng.uniform(0, 10))
            got = {p for p, _ in tree.ball_unvisited(center, 2.0, tick)}
            assert not (got & seen)
            seen |= got

    def test_new_tick_resets_visibility(self):
        tree = RTree()
        tree.insert(1, (0.0, 0.0))
        tick1 = tree.new_tick()
        assert tree.ball_unvisited((0.0, 0.0), 1.0, tick1)
        assert not tree.ball_unvisited((0.0, 0.0), 1.0, tick1)
        tick2 = tree.new_tick()
        assert tree.ball_unvisited((0.0, 0.0), 1.0, tick2)

    def test_should_mark_keeps_entries_visible(self):
        tree = RTree()
        tree.insert(1, (0.0, 0.0))
        tree.insert(2, (0.1, 0.0))
        tick = tree.new_tick()
        keep = lambda pid: pid != 1  # noqa: E731 - tiny test predicate
        first = {p for p, _ in tree.ball_unvisited((0.0, 0.0), 1.0, tick, keep)}
        assert first == {1, 2}
        second = {p for p, _ in tree.ball_unvisited((0.0, 0.0), 1.0, tick, keep)}
        assert second == {1}  # 1 was not marked, 2 was

    def test_mark_hides_entry(self):
        tree = RTree()
        tree.insert(1, (0.0, 0.0))
        tick = tree.new_tick()
        tree.mark(1, tick)
        assert tree.ball_unvisited((0.0, 0.0), 1.0, tick) == []

    def test_mark_unknown_rejected(self):
        tree = RTree()
        with pytest.raises(IndexError_):
            tree.mark(3, 1)

    def test_insert_after_tick_is_visible(self):
        tree = RTree()
        for pid, coords in random_points(8, 200):
            tree.insert(pid, coords)
        tick = tree.new_tick()
        # Exhaust a region, then insert a fresh point inside it.
        tree.ball_unvisited((5.0, 5.0), 3.0, tick)
        tree.insert(10_000, (5.0, 5.0))
        got = {p for p, _ in tree.ball_unvisited((5.0, 5.0), 3.0, tick)}
        assert got == {10_000}

    def test_matches_linear_oracle_under_mixed_ticks(self):
        tree = RTree()
        oracle = LinearScanIndex()
        rng = random.Random(21)
        for pid, coords in random_points(10, 250):
            tree.insert(pid, coords)
            oracle.insert(pid, coords)
        for _ in range(5):
            t_tree, t_oracle = tree.new_tick(), oracle.new_tick()
            for _ in range(30):
                center = (rng.uniform(0, 10), rng.uniform(0, 10))
                got = {p for p, _ in tree.ball_unvisited(center, 1.5, t_tree)}
                want = {
                    p for p, _ in oracle.ball_unvisited(center, 1.5, t_oracle)
                }
                assert got == want


class TestBulkLoadShape:
    """STR packing must never produce an underfull node.

    Regression: a short trailing slab in the recursive tiling used to pack
    into a single page with fewer than ``min_entries`` entries — the
    per-slab rebalance only fires within the final dimension's run.
    """

    def test_no_underfull_nodes_across_sizes(self):
        for seed in (0, 7, 21):
            for n in range(2, 70):
                tree = RTree()
                tree.insert_many(random_points(seed, n, span=6.0))
                tree.check_invariants()  # n=17 was underfull pre-fix

    def test_bulk_load_queries_match_incremental(self):
        points = random_points(21, 50, span=6.0)
        packed = RTree()
        packed.insert_many(points)
        grown = RTree()
        for pid, coords in points:
            grown.insert(pid, coords)
        rng = random.Random(99)
        for _ in range(25):
            center = (rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
            assert sorted(packed.ball(center, 0.75)) == sorted(
                grown.ball(center, 0.75)
            )


# Coordinates on the 0.25 grid, radii too: squared distances are exact, so
# the R-tree's and the oracle's eps tests cannot disagree at the boundary.
_grid = st.integers(min_value=0, max_value=16).map(lambda k: k / 4)
_position = st.tuples(_grid, _grid, _grid, _grid)
_LAYOUTS = {
    "scattered": lambda pos, dim: pos[:dim],
    "identical": lambda pos, dim: (1.0,) * dim,
    "collinear": lambda pos, dim: tuple(pos[0] * k for k in (1, -0.5, 2, 0.25)[:dim]),
}
_operation = st.one_of(
    st.tuples(st.just("insert"), _position),
    st.tuples(st.just("insert_many"), st.lists(_position, max_size=20)),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=999)),
    st.tuples(st.just("delete_many"), st.lists(st.integers(0, 999), max_size=12)),
    st.tuples(st.just("probe"), _position, _grid, st.booleans()),
    st.tuples(st.just("mark"), st.integers(min_value=0, max_value=999)),
    st.tuples(st.just("tick"), st.none()),
)


class TestSplitProperty:
    """Random inserts, deletes and epoch probes against the linear oracle.

    ``check_invariants`` (fill bounds, MBR cover, parent pointers, node
    epochs never above their children's) runs after every operation, so a
    split that leaves a half underfull, an MBR loose or an epoch too high
    fails at the operation that caused it.
    """

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("fanout", [(4, 2), (8, 3), (16, 4)])
    @settings(max_examples=12, deadline=None)
    @given(operations=st.lists(_operation, max_size=120))
    def test_matches_linear_oracle(self, fanout, dim, layout, operations):
        place = _LAYOUTS[layout]
        tree = RTree(max_entries=fanout[0], min_entries=fanout[1])
        oracle = LinearScanIndex()
        alive: list[int] = []
        next_pid = 0
        tick = tree.new_tick()
        assert oracle.new_tick() == tick
        for kind, *args in operations:
            if kind == "insert":
                coords = place(args[0], dim)
                tree.insert(next_pid, coords)
                oracle.insert(next_pid, coords)
                alive.append(next_pid)
                next_pid += 1
            elif kind == "insert_many":
                batch = [
                    (next_pid + i, place(pos, dim)) for i, pos in enumerate(args[0])
                ]
                tree.insert_many(batch)
                oracle.insert_many(batch)
                alive.extend(pid for pid, _ in batch)
                next_pid += len(batch)
            elif kind == "delete" and alive:
                pid = alive.pop(args[0] % len(alive))
                tree.delete(pid)
                oracle.delete(pid)
            elif kind == "delete_many" and alive:
                doomed = list(dict.fromkeys(alive[i % len(alive)] for i in args[0]))
                tree.delete_many(doomed)
                oracle.delete_many(doomed)
                alive = [pid for pid in alive if pid not in doomed]
            elif kind == "probe":
                center, radius, defer = place(args[0], dim), args[1], args[2]
                should_mark = (lambda pid: pid % 3 != 0) if defer else None
                assert sorted(tree.ball(center, radius)) == sorted(
                    oracle.ball(center, radius)
                )
                assert sorted(
                    tree.ball_unvisited(center, radius, tick, should_mark)
                ) == sorted(oracle.ball_unvisited(center, radius, tick, should_mark))
            elif kind == "mark" and alive:
                pid = alive[args[0] % len(alive)]
                tree.mark(pid, tick)
                oracle.mark(pid, tick)
            elif kind == "tick":
                tick = tree.new_tick()
                assert oracle.new_tick() == tick
            tree.check_invariants()
            assert sorted(tree.items()) == sorted(oracle.items())
