"""Unit tests for adaptive point replication (Algorithms 2-4)."""

import numpy as np
import pytest

from repro.agreements.marking import generate_duplicate_free_graph
from repro.geometry.point import Side
from repro.replication.assign import AdaptiveAssigner, count_replicas, medupar, supar
from tests.conftest import make_graph


@pytest.fixture
def uniform_r_assigner(grid2x2):
    graph = make_graph(grid2x2, Side.R)
    generate_duplicate_free_graph(graph)
    return AdaptiveAssigner(grid2x2, graph)


class TestAssignBasics:
    def test_interior_point_native_only(self, grid2x2, uniform_r_assigner):
        assert uniform_r_assigner.assign(1.0, 1.0, Side.R) == (grid2x2.cell_id(0, 0),)
        assert uniform_r_assigner.assign(1.0, 1.0, Side.S) == (grid2x2.cell_id(0, 0),)

    def test_native_cell_always_first(self, grid2x2, uniform_r_assigner):
        cells = uniform_r_assigner.assign(2.3, 1.0, Side.R)
        assert cells[0] == grid2x2.cell_id(0, 0)

    def test_plain_replication_gated_by_type(self, grid2x2, uniform_r_assigner):
        # point in cell (0,0), within eps of the east border only
        r_cells = uniform_r_assigner.assign(2.3, 1.0, Side.R)
        s_cells = uniform_r_assigner.assign(2.3, 1.0, Side.S)
        assert grid2x2.cell_id(1, 0) in r_cells
        assert s_cells == (grid2x2.cell_id(0, 0),)

    def test_merged_square_replicates_to_three_cells(self, grid2x2, uniform_r_assigner):
        # point in the eps-square at the corner (2.5, 2.5), close enough for
        # the diagonal as well
        cells = uniform_r_assigner.assign(2.2, 2.2, Side.R)
        assert set(cells) == {0, 1, 2, 3}

    def test_square_zone_beyond_corner_disc(self, grid2x2, uniform_r_assigner):
        # within eps of both borders but farther than eps from the corner:
        # replicate to the two side cells, not the diagonal
        cells = uniform_r_assigner.assign(1.6, 1.8, Side.R)
        assert set(cells) == {
            grid2x2.cell_id(0, 0),
            grid2x2.cell_id(1, 0),
            grid2x2.cell_id(0, 1),
        }

    def test_uniform_s_ignores_r_points(self, grid2x2):
        graph = make_graph(grid2x2, Side.S)
        generate_duplicate_free_graph(graph)
        assigner = AdaptiveAssigner(grid2x2, graph)
        assert assigner.assign(2.2, 2.2, Side.R) == (grid2x2.cell_id(0, 0),)
        assert len(assigner.assign(2.2, 2.2, Side.S)) == 4

    def test_at_most_four_assignments(self, grid4x4):
        graph = make_graph(grid4x4, Side.R)
        generate_duplicate_free_graph(graph)
        assigner = AdaptiveAssigner(grid4x4, graph)
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(0, 10, size=(500, 2)):
            cells = assigner.assign(float(x), float(y), Side.R)
            assert 1 <= len(cells) <= 4
            assert len(set(cells)) == len(cells)


class TestMeDuPAr:
    def test_unmarked_uniform_square_point(self, grid2x2):
        graph = make_graph(grid2x2, Side.R)
        sub = graph.quartet((1, 1))
        native = grid2x2.cell_id(0, 0)
        # in the square, within eps of the reference point
        cells = medupar(sub, 2.2, 2.2, Side.R, native, grid2x2.eps)
        assert cells == {1, 2, 3}

    def test_type_mismatch_yields_nothing(self, grid2x2):
        graph = make_graph(grid2x2, Side.R)
        sub = graph.quartet((1, 1))
        assert medupar(sub, 2.2, 2.2, Side.S, grid2x2.cell_id(0, 0), 1.0) == set()

    def test_marked_side_edge_excludes_destination(self, grid2x2):
        graph = make_graph(grid2x2, Side.R)
        sub = graph.quartet((1, 1))
        native, east = grid2x2.cell_id(0, 0), grid2x2.cell_id(1, 0)
        sub.edge(native, east).marked = True
        cells = medupar(sub, 2.2, 2.2, Side.R, native, grid2x2.eps)
        assert east not in cells

    def test_marked_side_edge_redirects_to_diagonal(self, grid2x2):
        """Beyond eps of the reference point the diagonal is normally not a
        target, but a marked same-type side edge redirects there."""
        graph = make_graph(grid2x2, Side.R)
        sub = graph.quartet((1, 1))
        native, east = grid2x2.cell_id(0, 0), grid2x2.cell_id(1, 0)
        diag = grid2x2.cell_id(1, 1)
        # without marks: no diagonal (d(o, ref) > eps)
        assert diag not in medupar(sub, 1.6, 1.8, Side.R, native, grid2x2.eps)
        sub.edge(native, east).marked = True
        assert diag in medupar(sub, 1.6, 1.8, Side.R, native, grid2x2.eps)

    def test_marked_diagonal_edge_blocks_diagonal(self, grid2x2):
        graph = make_graph(grid2x2, Side.R)
        sub = graph.quartet((1, 1))
        native, diag = grid2x2.cell_id(0, 0), grid2x2.cell_id(1, 1)
        sub.edge(native, diag).marked = True
        assert diag not in medupar(sub, 2.2, 2.2, Side.R, native, grid2x2.eps)


class TestSupAr:
    def _fig4_setup(self, grid2x2):
        """The Lemma 4.8 configuration: C replicates S to both A and B,
        R crosses between A and B; marking e_CB creates B's supplementary
        area (Fig. 5b)."""
        from repro.agreements.graph import AgreementGraph

        a = grid2x2.cell_id(0, 0)  # bl
        b = grid2x2.cell_id(1, 0)  # br
        c = grid2x2.cell_id(1, 1)  # tr, diagonal to A
        d = grid2x2.cell_id(0, 1)  # tl
        types = {
            frozenset((a, b)): Side.R,
            frozenset((c, a)): Side.S,
            frozenset((c, b)): Side.S,
            frozenset((c, d)): Side.S,
            frozenset((a, d)): Side.S,
            frozenset((b, d)): Side.S,
        }
        graph = AgreementGraph(grid2x2, types)
        sub = graph.quartet((1, 1))
        sub.edge(c, b).marked = True
        return graph, sub, a, b, c

    def test_force_replication_fires(self, grid2x2):
        graph, sub, a, b, c = self._fig4_setup(grid2x2)
        # r in B: within eps of C's border (y), beyond eps of A (x > 2.5+1),
        # within 2 eps of the reference point
        x, y = 3.7, 2.3
        cells = supar(sub, x, y, Side.R, b, grid2x2)
        assert cells == {a}

    def test_no_force_replication_without_mark(self, grid2x2):
        graph, sub, a, b, c = self._fig4_setup(grid2x2)
        sub.edge(c, b).marked = False
        assert supar(sub, 3.7, 2.3, Side.R, b, grid2x2) == set()

    def test_same_type_point_not_forced(self, grid2x2):
        graph, sub, a, b, c = self._fig4_setup(grid2x2)
        assert supar(sub, 3.7, 2.3, Side.S, b, grid2x2) == set()

    def test_beyond_two_eps_not_forced(self, grid2x2):
        graph, sub, a, b, c = self._fig4_setup(grid2x2)
        assert supar(sub, 4.8, 2.3, Side.R, b, grid2x2) == set()

    def test_native_cell_outside_quartet(self, grid3x2):
        graph = make_graph(grid3x2, Side.R)
        sub = graph.quartet((1, 1))
        outside = grid3x2.cell_id(2, 0)
        assert supar(sub, 6.0, 1.0, Side.R, outside, grid3x2) == set()


class TestBatch:
    def test_batch_matches_per_point(self, grid4x4):
        import random

        rng = random.Random(5)
        pairs = [frozenset(p[:2]) for p in grid4x4.adjacent_pairs()]
        types = [rng.choice([Side.R, Side.S]) for _ in pairs]
        graph = make_graph(grid4x4, types)
        generate_duplicate_free_graph(graph)
        assigner = AdaptiveAssigner(grid4x4, graph)
        nprng = np.random.default_rng(9)
        xs = nprng.uniform(0, 10, 400)
        ys = nprng.uniform(0, 10, 400)
        for side in Side:
            cells, idxs = assigner.assign_batch(xs, ys, side)
            got = {}
            for c, i in zip(cells.tolist(), idxs.tolist()):
                got.setdefault(i, set()).add(c)
            for i in range(400):
                expected = set(assigner.assign(float(xs[i]), float(ys[i]), side))
                assert got[i] == expected, i

    def test_count_replicas(self):
        assert count_replicas([(1,), (1, 2), (3, 4, 5)]) == 3


def _readings_agree(grid, x, y):
    """``assign_batch`` squares the distance to a reference point where the
    scalar ``medupar``/``supar`` root it; within an ulp of the circle the two
    can differ and either is correct (see ``degenerate_points``)."""
    eps = grid.eps
    for corner in grid.interior_corners():
        rx, ry = grid.corner_coords(*corner)
        d2 = (x - rx) * (x - rx) + (y - ry) * (y - ry)
        if d2 > 9.0 * eps * eps:
            continue
        if (d2 <= eps * eps) != (d2**0.5 <= eps):
            return False
        if (d2 > 4.0 * eps * eps) != (d2**0.5 > 2.0 * eps):
            return False
    return True


def _planted_points(grid, assigner, r, s):
    """Points where the armed gather could go wrong: on and ``eps`` off the
    borders between an armed and an unarmed cell, exactly ``eps`` and
    ``2 eps`` from the quartet reference points at those borders' ends,
    outside the MBR, plus a slice of the skewed data itself."""
    import math

    eps, nx = grid.eps, grid.nx

    def ulps(v):
        return (v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf))

    pts = [(-0.3, 0.5), (1.4, 0.2), (0.5, -2.0), (0.6, 1.7), (-1.0, -1.0), (2.0, 2.0)]
    for side in Side:
        armed = assigner.armed_cells[side].reshape(grid.ny, nx)
        across_x = np.argwhere(armed[:, 1:] != armed[:, :-1])  # (cy, cx): border east of cx
        across_y = np.argwhere(armed[1:, :] != armed[:-1, :])  # (cy, cx): border north of cy
        for borders, vertical in ((across_x, True), (across_y, False)):
            for cy, cx in borders[:: max(1, len(borders) // 5)][:5].tolist():
                x0, y0 = grid.corner_coords(cx, cy)
                x1, y1 = grid.corner_coords(cx + 1, cy + 1)
                if vertical:
                    line, ends, (lo, hi) = x1, ((x1, y0), (x1, y1)), (y0, y1)
                else:
                    line, ends, (lo, hi) = y1, ((x0, y1), (x1, y1)), (x0, x1)
                across = [*ulps(line), *ulps(line + eps), *ulps(line - eps), line + 0.5 * eps]
                along = [lo, lo + eps, lo + 0.5 * eps, 0.5 * (lo + hi), hi - eps]
                along.append(math.nextafter(hi, lo))
                for u in across:
                    pts += [(u, v) if vertical else (v, u) for v in along]
                for rx, ry in ends:
                    for radius in (eps, 2 * eps):
                        pts += [(rx + radius, ry), (rx - radius, ry), (rx, ry + radius), (rx, ry - radius)]
                        for ux, uy in ((0.6, 0.8), (-0.8, 0.6), (0.28, -0.96), (-0.6, -0.8)):
                            pts.append((rx + radius * ux, ry + radius * uy))
    kept = [p for p in pts if _readings_agree(grid, *p)]
    assert len(kept) >= 0.8 * len(pts)
    xs = np.concatenate([[p[0] for p in kept], r.xs[:120], s.xs[:120]])
    ys = np.concatenate([[p[1] for p in kept], r.ys[:120], s.ys[:120]])
    return xs, ys


@pytest.mark.parametrize("factor", [2.0, 4.0, 1.2])
def test_batch_equals_reference_where_armed_meets_unarmed(factor):
    """The emission contract, values and order, on skewed agreements: most
    cells hold no rule for one input, and their border points must stay in
    the border group, in input order, with a native-only row."""
    from repro.data.generators import gaussian_clusters, real_like
    from repro.geometry.mbr import MBR
    from repro.grid.grid import Grid
    from repro.grid.statistics import GridStatistics
    from repro.joins.pipeline import build_grid_assigner
    from tests.test_exhaustive_quartet import assert_batch_equals_reference

    r, s = real_like(3000, seed=31), gaussian_clusters(3000, seed=32)
    eps = 0.05 / factor
    unit = r.mbr().union(s.mbr())
    grids = {
        "plane": unit,
        "single row": MBR(unit.xmin, 0.4, unit.xmax, 0.4 + 1.5 * factor * eps),
        "single cell": MBR(0.4, 0.4, 0.4 + 1.5 * factor * eps, 0.4 + 1.5 * factor * eps),
    }
    for name, mbr in grids.items():
        grid = Grid(mbr, eps, factor)
        stats = GridStatistics(grid)
        stats.add_points(r.xs, r.ys, Side.R)
        stats.add_points(s.xs, s.ys, Side.S)
        for method in ("lpib", "diff"):
            for duplicate_free in (True, False):
                assigner, _ = build_grid_assigner(
                    grid, method, stats, input_sizes=(len(r), len(s)),
                    duplicate_free=duplicate_free,
                )
                if name == "plane":
                    for side in Side:
                        armed = assigner.armed_cells[side]
                        assert 0 < np.count_nonzero(armed) < grid.num_cells, (method, side)
                else:
                    assert grid.ny == 1 and (name == "single row") == (grid.nx > 1)
                xs, ys = _planted_points(grid, assigner, r, s)
                assert_batch_equals_reference(
                    assigner, xs, ys, (name, factor, method, duplicate_free)
                )


def test_mismatched_grid_rejected(grid2x2, grid4x4):
    graph = make_graph(grid2x2, Side.R)
    with pytest.raises(ValueError):
        AdaptiveAssigner(grid4x4, graph)
