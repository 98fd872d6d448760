"""Unit tests for universal (PBSM) replication."""

import numpy as np
import pytest

from repro.agreements.marking import generate_duplicate_free_graph
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.replication.assign import AdaptiveAssigner
from repro.replication.pbsm import UniversalAssigner, replication_targets_universal
from tests.conftest import make_graph


class TestTargets:
    def test_interior_point_no_targets(self, grid4x4):
        assert replication_targets_universal(grid4x4, 3.75, 3.75) == ()

    def test_border_point_one_target(self, grid4x4):
        targets = replication_targets_universal(grid4x4, 2.4, 1.0)
        assert targets == (grid4x4.cell_id(1, 0),)

    def test_corner_point_three_targets(self, grid4x4):
        targets = replication_targets_universal(grid4x4, 2.4, 2.4)
        assert set(targets) == {
            grid4x4.cell_id(1, 0),
            grid4x4.cell_id(0, 1),
            grid4x4.cell_id(1, 1),
        }

    def test_grid_boundary_no_phantom_cells(self, grid4x4):
        assert replication_targets_universal(grid4x4, 0.1, 0.1) == ()

    def test_eps_resolution_grid_wider_window(self):
        g = Grid(MBR(0, 0, 10, 10), eps=1.0, resolution_factor=1.0)
        assert g.cell_w < 2.0
        # a central point reaches beyond the 8-neighbourhood
        targets = replication_targets_universal(g, 5.0, 5.0)
        assert len(targets) > 3


class TestUniversalAssigner:
    def test_only_replicated_side_replicates(self, grid4x4):
        ua = UniversalAssigner(grid4x4, Side.R)
        assert len(ua.assign(2.4, 2.4, Side.R)) == 4
        assert len(ua.assign(2.4, 2.4, Side.S)) == 1

    def test_equivalent_to_uniform_agreement_graph(self, grid4x4):
        """PBSM is the graph-of-agreements instance with all-identical
        agreements (Sect. 4.4): both assigners must agree point-wise."""
        graph = make_graph(grid4x4, Side.R)
        generate_duplicate_free_graph(graph)
        adaptive = AdaptiveAssigner(grid4x4, graph)
        universal = UniversalAssigner(grid4x4, Side.R)
        rng = np.random.default_rng(17)
        for x, y in rng.uniform(0, 10, size=(600, 2)):
            for side in Side:
                assert set(adaptive.assign(float(x), float(y), side)) == set(
                    universal.assign(float(x), float(y), side)
                ), (x, y, side)

    def test_batch_matches_per_point_2eps(self, grid4x4):
        ua = UniversalAssigner(grid4x4, Side.S)
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 10, 300)
        ys = rng.uniform(0, 10, 300)
        for side in Side:
            cells, idxs = ua.assign_batch(xs, ys, side)
            got = {}
            for c, i in zip(cells.tolist(), idxs.tolist()):
                got.setdefault(i, set()).add(c)
            for i in range(300):
                assert got[i] == set(ua.assign(float(xs[i]), float(ys[i]), side))

    def test_batch_matches_per_point_eps_grid(self):
        g = Grid(MBR(0, 0, 10, 10), eps=1.0, resolution_factor=1.0)
        ua = UniversalAssigner(g, Side.R)
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 10, 200)
        ys = rng.uniform(0, 10, 200)
        cells, idxs = ua.assign_batch(xs, ys, Side.R)
        got = {}
        for c, i in zip(cells.tolist(), idxs.tolist()):
            got.setdefault(i, set()).add(c)
        for i in range(200):
            assert got[i] == set(ua.assign(float(xs[i]), float(ys[i]), Side.R))

    @pytest.mark.parametrize("factor", [1.0, 1.2])
    def test_fine_grid_batch_equals_per_point_as_arrays(self, factor):
        """Below ``2 eps`` a cell side: values *and* order -- point-major,
        native cell then the window in scan order -- on random points, on
        cell borders, exactly ``eps`` off them, and outside the MBR."""
        from tests.test_exhaustive_quartet import degenerate_points

        g = Grid(MBR(0, 0, 7, 5), eps=1.0, resolution_factor=factor)
        assert g.cell_w < 2.0 and g.cell_h < 2.0
        rng = np.random.default_rng(6)
        dx, dy = degenerate_points(g)
        xs = np.concatenate([rng.uniform(-0.5, 7.5, 300), dx])
        ys = np.concatenate([rng.uniform(-0.5, 5.5, 300), dy])
        ua = UniversalAssigner(g, Side.R)
        rows = [ua.assign(x, y, Side.R) for x, y in zip(xs.tolist(), ys.tolist())]
        cells, idxs = ua.assign_batch(xs, ys, Side.R)
        assert cells.dtype == idxs.dtype == np.int64
        assert cells.tolist() == [c for row in rows for c in row]
        assert idxs.tolist() == [i for i, row in enumerate(rows) for _ in row]
        assert max(map(len, rows)) > 4  # beyond the 8-neighbourhood's three
        empty = ua.assign_batch(np.empty(0), np.empty(0), Side.R)
        assert all(len(a) == 0 and a.dtype == np.int64 for a in empty)

    def test_all_targets_within_eps(self, grid4x4):
        ua = UniversalAssigner(grid4x4, Side.R)
        rng = np.random.default_rng(8)
        for x, y in rng.uniform(0, 10, size=(300, 2)):
            native, *rest = ua.assign(float(x), float(y), Side.R)
            for cell in rest:
                mbr = grid4x4.cell_mbr(*grid4x4.cell_pos(cell))
                assert mbr.mindist_point(float(x), float(y)) <= grid4x4.eps + 1e-12
