"""Unit tests for the R-tree's MBR pruning bound."""

from repro.index.rtree import mindist_sq


class TestMindist:
    def test_inside_is_zero(self):
        rect = ((0.0, 0.0), (2.0, 2.0))
        assert mindist_sq(rect, (1.0, 1.0)) == 0.0

    def test_boundary_is_zero(self):
        rect = ((0.0, 0.0), (2.0, 2.0))
        assert mindist_sq(rect, (2.0, 1.0)) == 0.0

    def test_axis_distance(self):
        rect = ((0.0, 0.0), (2.0, 2.0))
        assert mindist_sq(rect, (5.0, 1.0)) == 9.0

    def test_corner_distance(self):
        rect = ((0.0, 0.0), (2.0, 2.0))
        assert mindist_sq(rect, (5.0, 6.0)) == 9.0 + 16.0
