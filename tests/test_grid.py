"""Unit tests for the regular grid (Sect. 4.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.mbr import MBR
from repro.grid.grid import Grid


class TestConstruction:
    def test_paper_formula(self):
        # m_x = ceil((xmax - xmin) / (2 eps)) - 1
        g = Grid(MBR(0, 0, 10, 10), eps=1.0)
        assert (g.nx, g.ny) == (4, 4)
        assert g.cell_w == pytest.approx(2.5)

    def test_cell_side_exceeds_two_eps(self):
        for extent, eps in [(10, 1.0), (7.3, 0.4), (100, 3.7), (5, 1.0)]:
            g = Grid(MBR(0, 0, extent, extent), eps)
            if g.nx > 1:
                assert g.cell_w > 2 * eps
            if g.ny > 1:
                assert g.cell_h > 2 * eps

    @given(st.floats(1.0, 1000.0), st.floats(0.01, 10.0))
    def test_cell_side_property(self, extent, eps):
        g = Grid(MBR(0, 0, extent, extent), eps)
        assert g.nx >= 1 and g.ny >= 1
        if g.nx > 1:
            assert g.cell_w >= 2 * eps

    def test_resolution_factor(self):
        g2 = Grid(MBR(0, 0, 100, 100), eps=1.0, resolution_factor=2.0)
        g5 = Grid(MBR(0, 0, 100, 100), eps=1.0, resolution_factor=5.0)
        assert g5.nx < g2.nx
        assert g5.cell_w >= 5.0

    def test_tiny_extent_clamps_to_one_cell(self):
        g = Grid(MBR(0, 0, 0.5, 0.5), eps=1.0)
        assert (g.nx, g.ny) == (1, 1)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            Grid(MBR(0, 0, 1, 1), eps=0.0)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            Grid(MBR(0, 0, 1, 1), eps=0.1, resolution_factor=0.5)

    def test_describe_mentions_shape(self):
        g = Grid(MBR(0, 0, 10, 10), eps=1.0)
        assert "4x4" in g.describe()


class TestAddressing:
    def test_cell_id_roundtrip(self, grid4x4):
        for cid in range(grid4x4.num_cells):
            cx, cy = grid4x4.cell_pos(cid)
            assert grid4x4.cell_id(cx, cy) == cid

    def test_cell_index_interior(self, grid4x4):
        assert grid4x4.cell_index(0.1, 0.1) == (0, 0)
        assert grid4x4.cell_index(9.9, 9.9) == (3, 3)
        assert grid4x4.cell_index(2.6, 5.1) == (1, 2)

    def test_cell_index_clamps_outside(self, grid4x4):
        assert grid4x4.cell_index(-5, -5) == (0, 0)
        assert grid4x4.cell_index(50, 50) == (3, 3)

    def test_point_on_max_edge_belongs_to_last_cell(self, grid4x4):
        assert grid4x4.cell_index(10.0, 10.0) == (3, 3)

    def test_cell_mbr_tiles_space(self, grid4x4):
        total = sum(
            grid4x4.cell_mbr(cx, cy).area
            for cy in range(grid4x4.ny)
            for cx in range(grid4x4.nx)
        )
        assert total == pytest.approx(grid4x4.mbr.area)

    def test_cell_of_matches_mbr(self, grid4x4):
        x, y = 3.7, 8.1
        cx, cy = grid4x4.cell_index(x, y)
        assert grid4x4.cell_mbr(cx, cy).contains_point(x, y)

    def test_neighbors_interior(self, grid4x4):
        assert len(list(grid4x4.neighbors(1, 1))) == 8

    def test_neighbors_corner(self, grid4x4):
        assert len(list(grid4x4.neighbors(0, 0))) == 3

    def test_neighbors_edge(self, grid4x4):
        assert len(list(grid4x4.neighbors(0, 1))) == 5


class TestCornersAndQuartets:
    def test_interior_corner_count(self, grid4x4):
        assert len(list(grid4x4.interior_corners())) == 9

    def test_no_interior_corner_on_single_row(self):
        g = Grid(MBR(0, 0, 10, 2.4), eps=1.0)
        assert g.ny == 1
        assert list(g.interior_corners()) == []

    def test_corner_coords(self, grid4x4):
        assert grid4x4.corner_coords(1, 1) == (2.5, 2.5)

    def test_is_interior_corner(self, grid4x4):
        assert grid4x4.is_interior_corner(1, 1)
        assert not grid4x4.is_interior_corner(0, 1)
        assert not grid4x4.is_interior_corner(4, 2)

    def test_quartet_cells_layout(self, grid4x4):
        cells = grid4x4.quartet_cells(2, 1)
        assert cells["bl"] == grid4x4.cell_id(1, 0)
        assert cells["br"] == grid4x4.cell_id(2, 0)
        assert cells["tl"] == grid4x4.cell_id(1, 1)
        assert cells["tr"] == grid4x4.cell_id(2, 1)

    def test_quartet_cells_are_around_corner(self, grid4x4):
        qx, qy = 2, 2
        cx, cy = grid4x4.corner_coords(qx, qy)
        for cell in grid4x4.quartet_cells(qx, qy).values():
            mbr = grid4x4.cell_mbr(*grid4x4.cell_pos(cell))
            assert mbr.contains_point(cx, cy)


class TestAdjacency:
    def test_pair_counts_4x4(self, grid4x4):
        pairs = list(grid4x4.adjacent_pairs())
        sides = [p for p in pairs if p[2] == "side"]
        corners = [p for p in pairs if p[2] == "corner"]
        assert len(sides) == 24  # 2 * 4 * 3
        assert len(corners) == 18  # 2 * 3 * 3

    def test_pairs_unique(self, grid4x4):
        pairs = [frozenset(p[:2]) for p in grid4x4.adjacent_pairs()]
        assert len(pairs) == len(set(pairs))

    def test_adjacent_pairs_kind_consistent(self, grid4x4):
        for a, b, kind in grid4x4.adjacent_pairs():
            (ax, ay), (bx, by) = grid4x4.cell_pos(a), grid4x4.cell_pos(b)
            dx, dy = abs(ax - bx), abs(ay - by)
            assert (dx, dy) in ((1, 0), (0, 1), (1, 1))
            assert kind == ("side" if dx + dy == 1 else "corner")
