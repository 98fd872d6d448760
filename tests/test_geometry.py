"""Unit tests for geometric primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.distance import (
    euclidean,
    euclidean_sq,
)
from repro.geometry.mbr import MBR
from repro.geometry.point import Side

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestSide:
    def test_other_flips(self):
        assert Side.R.other is Side.S
        assert Side.S.other is Side.R

    def test_double_other_is_identity(self):
        for side in Side:
            assert side.other.other is side

    def test_str(self):
        assert str(Side.R) == "R"
        assert str(Side.S) == "S"


class TestDistanceFunctions:
    def test_euclidean_known(self):
        assert euclidean(0, 0, 3, 4) == pytest.approx(5.0)

    def test_euclidean_sq_matches(self):
        assert euclidean_sq(1, 2, 4, 6) == pytest.approx(euclidean(1, 2, 4, 6) ** 2)

    @given(coords, coords, coords, coords)
    def test_euclidean_non_negative_and_symmetric(self, x1, y1, x2, y2):
        d = euclidean(x1, y1, x2, y2)
        assert d >= 0
        assert d == pytest.approx(euclidean(x2, y2, x1, y1))

    @given(coords, coords)
    def test_identity_of_indiscernibles(self, x, y):
        assert euclidean(x, y, x, y) == 0.0


class TestMBR:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            MBR(1, 0, 0, 1)
        with pytest.raises(ValueError):
            MBR(0, 1, 1, 0)

    def test_zero_area_allowed(self):
        point_rect = MBR(1, 1, 1, 1)
        assert point_rect.area == 0

    def test_dimensions(self):
        m = MBR(0, 0, 4, 2)
        assert m.width == 4
        assert m.height == 2
        assert m.area == 8
        assert m.center == (2, 1)

    def test_contains_point_closed(self):
        m = MBR(0, 0, 1, 1)
        assert m.contains_point(0, 0)
        assert m.contains_point(1, 1)
        assert not m.contains_point(1.0001, 0.5)

    def test_intersects_overlap_and_touch(self):
        a = MBR(0, 0, 2, 2)
        assert a.intersects(MBR(1, 1, 3, 3))
        assert a.intersects(MBR(2, 2, 3, 3))  # corner touch counts
        assert not a.intersects(MBR(2.001, 0, 3, 1))

    def test_intersects_symmetric(self):
        a, b = MBR(0, 0, 2, 2), MBR(1, -1, 5, 0.5)
        assert a.intersects(b) == b.intersects(a)

    def test_mindist_inside_is_zero(self):
        assert MBR(0, 0, 2, 2).mindist_point(1, 1) == 0

    def test_mindist_side_and_corner(self):
        m = MBR(0, 0, 2, 2)
        assert m.mindist_point(3, 1) == pytest.approx(1.0)
        assert m.mindist_point(3, 3) == pytest.approx(math.sqrt(2))
        assert m.mindist_point(-3, -4) == pytest.approx(5.0)

    def test_union(self):
        u = MBR(0, 0, 1, 1).union(MBR(2, -1, 3, 0.5))
        assert (u.xmin, u.ymin, u.xmax, u.ymax) == (0, -1, 3, 1)

    def test_of_points(self):
        m = MBR.of_points([1, 5, 3], [2, 0, 4])
        assert (m.xmin, m.ymin, m.xmax, m.ymax) == (1, 0, 5, 4)

    def test_of_points_empty_raises(self):
        with pytest.raises(ValueError):
            MBR.of_points([], [])

    @given(coords, coords, st.floats(0, 100))
    def test_mindist_triangle_consistency(self, x, y, margin):
        # a point's mindist to an expanded rect can only shrink
        m = MBR(-10, -10, 10, 10)
        grown = MBR(-10 - margin, -10 - margin, 10 + margin, 10 + margin)
        assert grown.mindist_point(x, y) <= m.mindist_point(x, y) + 1e-9
