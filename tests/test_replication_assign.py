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


def test_mismatched_grid_rejected(grid2x2, grid4x4):
    graph = make_graph(grid2x2, Side.R)
    with pytest.raises(ValueError):
        AdaptiveAssigner(grid4x4, graph)
