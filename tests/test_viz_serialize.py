"""Unit tests for terminal visualization and the result's wire form."""

import json

from repro.common.points import StreamPoint
from repro.common.snapshot import Category, Clustering
from repro.core.disc import DISC
from repro.viz import NOISE_GLYPH, render_clustering, render_comparison


def make_snapshot():
    disc = DISC(0.6, 3)
    left = [StreamPoint(i, (0.4 * i, 0.0), 0.0) for i in range(5)]
    right = [StreamPoint(100 + i, (10.0 + 0.4 * i, 5.0), 0.0) for i in range(5)]
    noise = [StreamPoint(999, (5.0, -5.0), 0.0)]
    disc.advance(left + right + noise, ())
    coords = {p.pid: p.coords for p in left + right + noise}
    return disc.snapshot(), coords


class TestRenderClustering:
    def test_dimensions(self):
        snapshot, coords = make_snapshot()
        text = render_clustering(snapshot, coords, width=40, height=10,
                                 legend=False)
        lines = text.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 40 for line in lines)

    def test_distinct_glyphs_per_cluster(self):
        snapshot, coords = make_snapshot()
        text = render_clustering(snapshot, coords, width=40, height=10,
                                 legend=False)
        used = {c for c in text if c not in (" ", "\n", NOISE_GLYPH)}
        assert len(used) == 2  # two clusters, two glyphs

    def test_noise_rendered_as_dot(self):
        snapshot, coords = make_snapshot()
        text = render_clustering(snapshot, coords, width=40, height=10,
                                 legend=False)
        assert NOISE_GLYPH in text

    def test_legend(self):
        snapshot, coords = make_snapshot()
        text = render_clustering(snapshot, coords, width=40, height=10)
        assert "clusters:" in text
        assert "noise(.)=1" in text

    def test_empty(self):
        empty = Clustering({}, {})
        assert "empty" in render_clustering(empty, {})

    def test_single_point(self):
        snapshot = Clustering({}, {1: Category.NOISE})
        text = render_clustering(snapshot, {1: (3.0, 4.0)}, width=10, height=4,
                                 legend=False)
        assert text.count(NOISE_GLYPH) == 1

    def test_axis_projection(self):
        # 3D points projected onto (0, 2).
        snapshot = Clustering({}, {1: Category.NOISE, 2: Category.NOISE})
        coords = {1: (0.0, 9.0, 0.0), 2: (1.0, 9.0, 1.0)}
        text = render_clustering(snapshot, coords, width=10, height=4,
                                 axes=(0, 2), legend=False)
        assert text.count(NOISE_GLYPH) == 2

    def test_comparison_stacks_methods(self):
        snapshot, coords = make_snapshot()
        text = render_comparison({"DISC": snapshot, "other": snapshot}, coords)
        assert "--- DISC" in text
        assert "--- other" in text


class TestSerialization:
    """The result's one wire form, ``Clustering.payload``, and its encoding."""

    def test_roundtrip(self):
        snapshot, _ = make_snapshot()
        restored = Clustering(snapshot.labels, snapshot.categories)
        assert restored.labels == snapshot.labels
        assert restored.categories == snapshot.categories
        assert restored.encode() == snapshot.encode()

    def test_dict_roundtrip(self):
        snapshot, _ = make_snapshot()
        payload = snapshot.payload()
        restored = Clustering(
            {int(pid): cid for pid, cid in payload["labels"].items()},
            {int(pid): Category(cat) for pid, cat in payload["categories"].items()},
        )
        assert restored.core_clusters() == snapshot.core_clusters()
        assert restored.payload() == payload

    def test_stable_output(self):
        snapshot, _ = make_snapshot()
        assert snapshot.encode() == snapshot.encode()
        assert json.loads(snapshot.encode()) == snapshot.payload()
