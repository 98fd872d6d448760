"""Tests for rectangulations (grid and QuadTree partitions)."""

import numpy as np
import pytest

from repro.data.generators import gaussian_clusters, uniform
from repro.geometry.mbr import MBR
from repro.grid.grid import Grid
from repro.partitioning.rect_partition import (
    GridRectPartition,
    QuadtreeRectPartition,
)

EPS = 0.02


@pytest.fixture(scope="module")
def grid_part():
    return GridRectPartition(Grid(MBR(0, 0, 1, 1), EPS))


@pytest.fixture(scope="module")
def quad_part():
    sample = gaussian_clusters(3000, seed=7)
    return QuadtreeRectPartition(
        MBR(0, 0, 1, 1), EPS, sample.xs, sample.ys, capacity=200
    )


class TestGridPartition:
    def test_validates(self, grid_part):
        grid_part.validate()

    def test_leaf_of_matches_grid(self, grid_part):
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(0, 1, (200, 2)):
            leaf = grid_part.leaf_of(float(x), float(y))
            assert grid_part.leaves[leaf].contains_point(float(x), float(y))

    def test_adjacency_is_eight_neighbourhood(self, grid_part):
        g = grid_part.grid
        interior = g.cell_id(2, 2)
        assert len(grid_part.neighbors(interior)) == 8
        corner = g.cell_id(0, 0)
        assert len(grid_part.neighbors(corner)) == 3


class TestQuadtreePartition:
    def test_validates(self, quad_part):
        quad_part.validate()

    def test_adaptive_leaf_sizes(self, quad_part):
        sizes = {round(leaf.width, 9) for leaf in quad_part.leaves}
        assert len(sizes) >= 2  # clustered sample forces mixed resolutions

    def test_min_side_respected(self, quad_part):
        for leaf in quad_part.leaves:
            assert leaf.width >= 2 * EPS - 1e-12
            assert leaf.height >= 2 * EPS - 1e-12

    def test_leaf_of_consistent(self, quad_part):
        rng = np.random.default_rng(2)
        for x, y in rng.uniform(0, 1, (300, 2)):
            leaf = quad_part.leaf_of(float(x), float(y))
            assert quad_part.leaves[leaf].contains_point(float(x), float(y))

    def test_leaves_tile_exactly(self, quad_part):
        total = sum(leaf.area for leaf in quad_part.leaves)
        assert total == pytest.approx(1.0)

    def test_adjacency_symmetric(self, quad_part):
        for a, b in quad_part.adjacent_pairs():
            assert a in quad_part.neighbors(b)
            assert b in quad_part.neighbors(a)

    def test_non_touching_leaves_far_apart(self, quad_part):
        """The dyadic gap property the replication rule relies on."""
        leaves = quad_part.leaves
        for i in range(len(leaves)):
            nbrs = set(quad_part.neighbors(i))
            for j in range(len(leaves)):
                if j == i or j in nbrs:
                    continue
                dx = max(leaves[i].xmin - leaves[j].xmax,
                         leaves[j].xmin - leaves[i].xmax, 0.0)
                dy = max(leaves[i].ymin - leaves[j].ymax,
                         leaves[j].ymin - leaves[i].ymax, 0.0)
                assert max(dx, dy) >= 2 * EPS - 1e-9, (i, j)

    def test_uniform_sample_single_leaf_when_under_capacity(self):
        sample = uniform(50, seed=3)
        part = QuadtreeRectPartition(
            MBR(0, 0, 1, 1), EPS, sample.xs, sample.ys, capacity=100
        )
        assert part.num_leaves == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            QuadtreeRectPartition(
                MBR(0, 0, 1, 1), EPS, np.empty(0), np.empty(0), capacity=0
            )

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            GridRectPartition.__mro__  # touch to satisfy linters
            QuadtreeRectPartition(MBR(0, 0, 1, 1), 0.0, np.empty(0), np.empty(0))

    def test_targets_within_eps(self, quad_part):
        # a point near a leaf border must list the across-the-border leaf
        leaf0 = quad_part.leaves[0]
        x = leaf0.xmax - EPS / 2
        y = (leaf0.ymin + leaf0.ymax) / 2
        native = quad_part.leaf_of(x, y)
        targets = quad_part.targets_within_eps(x, y, native)
        assert targets, "expected at least one replication target"
        for t in targets:
            assert quad_part.leaves[t].mindist_point(x, y) <= EPS
