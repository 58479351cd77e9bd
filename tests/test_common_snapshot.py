"""Unit tests for the Clustering snapshot type and distance helpers."""

import math

import pytest

from repro.common.distance import dists_to_many, within_eps
from repro.common.points import StreamPoint, make_points
from repro.common.snapshot import CATEGORIES, Category, Clustering


class TestDistance:
    def test_squared_distance(self):
        assert dists_to_many((0.0, 0.0), (3.0, 4.0)) == 25.0

    def test_zero_distance(self):
        assert dists_to_many((1.5, 2.5), (1.5, 2.5)) == 0.0
        assert within_eps((1.5, 2.5), (1.5, 2.5), 0.0)

    def test_within_eps_inclusive(self):
        assert within_eps((0.0,), (1.0,), 1.0)

    def test_outside_eps(self):
        assert not within_eps((0.0, 0.0), (1.0, 1.0), 1.0)

    def test_matches_math_dist(self):
        a, b = (0.3, -1.2, 5.0), (2.2, 0.1, -3.3)
        assert within_eps(a, b, math.dist(a, b))
        assert not within_eps(a, b, math.nextafter(math.dist(a, b), 0.0))
        assert dists_to_many(a, b) == pytest.approx(math.dist(a, b) ** 2)


class TestStreamPoint:
    def test_fields(self):
        sp = StreamPoint(3, (1.0, 2.0), 7.5)
        assert sp.pid == 3
        assert sp.coords == (1.0, 2.0)
        assert sp.time == 7.5

    def test_make_points(self):
        pts = make_points([(0.0, 0.0), (1.0, 1.0)], start_id=10, start_time=5.0)
        assert [p.pid for p in pts] == [10, 11]
        assert pts[1].time == 6.0


def sample_clustering() -> Clustering:
    labels = {1: 100, 2: 100, 3: 200, 4: 200, 5: 200}
    categories = {
        1: Category.CORE,
        2: Category.BORDER,
        3: Category.CORE,
        4: Category.CORE,
        5: Category.BORDER,
        6: Category.NOISE,
    }
    return Clustering(labels, categories)


class TestClustering:
    def test_label_of(self):
        snap = sample_clustering()
        assert snap.label_of(1) == 100
        assert snap.label_of(6) == Clustering.NOISE_ID
        assert snap.label_of(999) == Clustering.NOISE_ID

    def test_category_of(self):
        snap = sample_clustering()
        assert snap.category_of(2) is Category.BORDER
        assert snap.category_of(999) is Category.NOISE

    def test_clusters(self):
        clusters = sample_clustering().clusters()
        assert clusters == {100: {1, 2}, 200: {3, 4, 5}}

    def test_core_clusters_exclude_borders(self):
        cores = sample_clustering().core_clusters()
        assert cores == {100: frozenset({1}), 200: frozenset({3, 4})}

    def test_num_clusters(self):
        assert sample_clustering().num_clusters == 2

    def test_counts(self):
        snap = sample_clustering()
        assert snap.count(Category.CORE) == 3
        assert snap.count(Category.BORDER) == 2
        assert snap.count(Category.NOISE) == 1
        assert snap.num_points == 6

    def test_label_array_order(self):
        snap = sample_clustering()
        assert snap.label_array([6, 1, 3]) == [Clustering.NOISE_ID, 100, 200]

    def test_noise_labels_dropped(self):
        snap = Clustering({7: Clustering.NOISE_ID}, {7: Category.NOISE})
        assert snap.label_of(7) == Clustering.NOISE_ID
        assert not snap.labels

    def test_repr_mentions_counts(self):
        text = repr(sample_clustering())
        assert "clusters=2" in text
        assert "points=6" in text


class TestColumns:
    def test_sorted_read_only_columns(self):
        snap = sample_clustering()
        assert snap.pid.tolist() == [1, 2, 3, 4, 5, 6]
        assert snap.label.tolist() == [100, 100, 200, 200, 200, Clustering.NOISE_ID]
        assert [CATEGORIES[c] for c in snap.cat.tolist()] == [
            Category.CORE,
            Category.BORDER,
            Category.CORE,
            Category.CORE,
            Category.BORDER,
            Category.NOISE,
        ]
        for column in (snap.pid, snap.label, snap.cat):
            assert not column.flags.writeable

    def test_membership_of_unknown_and_out_of_range_pids(self):
        snap = sample_clustering()
        assert 6 in snap and 7 not in snap
        for pid in (0, 7, -(2**70), 2**70):
            assert snap.label_of(pid) == Clustering.NOISE_ID
            assert snap.category_of(pid) is Category.NOISE

    def test_payload_omits_noise_and_lists_cores_first(self):
        payload = sample_clustering().payload()
        assert list(payload["labels"].items()) == [
            ("1", 100), ("3", 200), ("4", 200), ("2", 100), ("5", 200)
        ]
        assert list(payload["categories"]) == ["1", "2", "3", "4", "5", "6"]
        assert payload["num_points"] == 6 and payload["num_clusters"] == 2

    def test_disc_snapshot_does_not_alias_the_arena(self):
        from repro.core.disc import DISC

        disc = DISC(1.0, 3)
        points = [StreamPoint(9 - i, (0.1 * i, 0.0), 0.0) for i in range(8)]
        disc.advance(points, ())
        snap = disc.snapshot()
        assert snap.pid.tolist() == list(range(2, 10))
        assert snap.count(Category.CORE) == 8
        before = snap.encode()
        disc.advance([StreamPoint(20, (50.0, 0.0), 1.0)], points[:4])
        assert snap.encode() == before
        assert disc.snapshot().pid.tolist() == [2, 3, 4, 5, 20]
