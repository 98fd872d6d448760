"""Unit tests for Algorithm 1: edge marking and locking."""

import pytest

from repro.agreements.marking import (
    generate_duplicate_free_graph,
    mark_quartet,
    mixed_triangles,
    triangle_apex,
    unresolved_mixed_triangles,
)
from repro.geometry.point import Side
from tests.conftest import all_type_combos, make_graph


def graph_with(grid, types):
    return make_graph(grid, list(types))


def pairs_in_order(grid):
    return [frozenset(p[:2]) for p in grid.adjacent_pairs()]


def set_types(grid2x2, mapping):
    """Build a 2x2 graph with explicit per-pair types.

    ``mapping`` maps (cx_a, cy_a, cx_b, cy_b) -> Side.
    """
    types = {}
    for (ax, ay, bx, by), side in mapping.items():
        types[frozenset((grid2x2.cell_id(ax, ay), grid2x2.cell_id(bx, by)))] = side
    from repro.agreements.graph import AgreementGraph

    return AgreementGraph(grid2x2, types)


class TestApexDetection:
    def test_pure_triangle_has_no_apex(self, grid2x2):
        graph = make_graph(grid2x2, Side.R)
        sub = graph.quartets[(1, 1)]
        for tri in sub.triangles():
            assert triangle_apex(sub, tri) is None

    def test_mixed_triangle_apex(self, grid2x2):
        # bl-br: S, all others R -> in triangle (bl, br, tl) the apex is tl
        graph = set_types(
            grid2x2,
            {
                (0, 0, 1, 0): Side.S,
                (0, 0, 0, 1): Side.R,
                (0, 0, 1, 1): Side.R,
                (1, 0, 0, 1): Side.R,
                (1, 0, 1, 1): Side.R,
                (0, 1, 1, 1): Side.R,
            },
        )
        sub = graph.quartets[(1, 1)]
        bl, br, tl = (
            grid2x2.cell_id(0, 0),
            grid2x2.cell_id(1, 0),
            grid2x2.cell_id(0, 1),
        )
        assert triangle_apex(sub, (bl, br, tl)) == tl

    def test_mixed_triangle_count(self, grid2x2):
        graph = set_types(
            grid2x2,
            {
                (0, 0, 1, 0): Side.S,
                (0, 0, 0, 1): Side.R,
                (0, 0, 1, 1): Side.R,
                (1, 0, 0, 1): Side.R,
                (1, 0, 1, 1): Side.R,
                (0, 1, 1, 1): Side.R,
            },
        )
        sub = graph.quartets[(1, 1)]
        # bl-br is the only S pair; it appears in two triangles
        assert len(list(mixed_triangles(sub))) == 2


class TestMarkQuartet:
    def test_pure_graph_marks_nothing(self, grid2x2):
        graph = make_graph(grid2x2, Side.R)
        sub = graph.quartets[(1, 1)]
        report = mark_quartet(sub)
        assert report.marked_edges == 0
        assert report.mixed_triangles == 0
        assert not any(e.marked or e.locked for e in sub.edges())

    def test_every_mixed_triangle_resolved(self, grid2x2):
        for combo in all_type_combos(grid2x2):
            graph = graph_with(grid2x2, combo)
            sub = graph.quartets[(1, 1)]
            mark_quartet(sub)
            assert unresolved_mixed_triangles(sub) == []

    def test_marked_edge_is_apex_edge(self, grid2x2):
        for combo in all_type_combos(grid2x2):
            graph = graph_with(grid2x2, combo)
            sub = graph.quartets[(1, 1)]
            mark_quartet(sub)
            for e in sub.edges():
                if not e.marked:
                    continue
                # the marked edge must be an apex edge of a mixed triangle
                ok = False
                for tri in sub.triangles_of_pair(e.tail, e.head):
                    if triangle_apex(sub, tri) == e.tail:
                        ok = True
                assert ok, (combo, e)

    def test_every_marked_edge_keeps_a_valid_support_triangle(self, grid2x2):
        """For a marked e_ij there must remain a third vertex k with
        e_ik of the same type, e_jk of the other type, and both unmarked --
        the triangle whose locked edges carry the excluded pairs."""
        for combo in all_type_combos(grid2x2):
            graph = graph_with(grid2x2, combo)
            sub = graph.quartets[(1, 1)]
            mark_quartet(sub)
            for e in sub.edges():
                if not e.marked:
                    continue
                supports = [
                    k
                    for k in sub.third_vertices(e.tail, e.head)
                    if sub.edge(e.tail, k).side == e.side
                    and sub.edge(e.head, k).side != e.side
                    and not sub.edge(e.tail, k).marked
                    and not sub.edge(e.head, k).marked
                ]
                assert supports, (combo, e)

    def test_report_counts(self, grid2x2):
        graph = set_types(
            grid2x2,
            {
                (0, 0, 1, 0): Side.S,
                (0, 0, 0, 1): Side.R,
                (0, 0, 1, 1): Side.R,
                (1, 0, 0, 1): Side.R,
                (1, 0, 1, 1): Side.R,
                (0, 1, 1, 1): Side.R,
            },
        )
        report = mark_quartet(graph.quartets[(1, 1)])
        assert report.quartets == 1
        assert report.mixed_triangles == 2
        assert report.marked_edges >= 1

    def test_weight_ordering_marks_diagonals_first(self, grid2x2):
        """Diagonal edges are examined before side edges regardless of
        weight, per the paper's ordering (Sect. 5.2)."""
        graph = set_types(
            grid2x2,
            {
                (0, 0, 1, 0): Side.R,
                (0, 0, 0, 1): Side.S,
                (0, 0, 1, 1): Side.S,  # diagonal bl-tr
                (1, 0, 0, 1): Side.R,  # diagonal br-tl
                (1, 0, 1, 1): Side.R,
                (0, 1, 1, 1): Side.S,
            },
        )
        sub = graph.quartets[(1, 1)]
        # give side edges huge weights; diagonals stay at zero
        for e in sub.edges():
            if not sub.pair_is_diagonal(e.tail, e.head):
                e.weight = 1000.0
        mark_quartet(sub)
        diagonal_marks = [
            e for e in sub.edges() if e.marked and sub.pair_is_diagonal(e.tail, e.head)
        ]
        assert diagonal_marks, "expected at least one diagonal edge marked first"


class TestTriangleTieBreak:
    def test_larger_locked_weight_sum_wins(self, grid2x2):
        """When an edge can be marked via two triangles, the one whose
        locked edges carry the larger weight sum is chosen (Sect. 5.2)."""
        bl, br = grid2x2.cell_id(0, 0), grid2x2.cell_id(1, 0)
        tl, tr = grid2x2.cell_id(0, 1), grid2x2.cell_id(1, 1)
        graph = set_types(
            grid2x2,
            {
                (0, 0, 1, 1): Side.R,  # bl-tr diagonal: the marked edge
                (0, 0, 1, 0): Side.R,  # bl-br
                (0, 0, 0, 1): Side.R,  # bl-tl
                (1, 0, 1, 1): Side.S,  # br-tr
                (0, 1, 1, 1): Side.S,  # tl-tr
                (1, 0, 0, 1): Side.S,  # br-tl diagonal
            },
        )
        sub = graph.quartets[(1, 1)]
        # make e(bl->tr) the first edge examined (heaviest diagonal) and
        # give the tl-triangle supports the larger weight sum
        sub.edge(bl, tr).weight = 100.0
        sub.edge(bl, br).weight = 1.0   # support via k=br
        sub.edge(tr, br).weight = 1.0
        sub.edge(bl, tl).weight = 10.0  # support via k=tl
        sub.edge(tr, tl).weight = 10.0
        mark_quartet(sub)
        assert sub.edge(bl, tr).marked
        assert sub.edge(bl, tl).locked
        assert sub.edge(tr, tl).locked


class TestGraphLevel:
    def test_generate_covers_all_quartets(self, grid4x4):
        import itertools
        import random

        rng = random.Random(3)
        pairs = pairs_in_order(grid4x4)
        types = {p: rng.choice([Side.R, Side.S]) for p in pairs}
        from repro.agreements.graph import AgreementGraph

        graph = AgreementGraph(grid4x4, types)
        report = generate_duplicate_free_graph(graph)
        assert report.quartets == 9
        for sub in graph.quartets.values():
            assert unresolved_mixed_triangles(sub) == []
        assert graph.marked.sum() == sum(
            len(s.marked_edges()) for s in graph.quartets.values()
        )
        del itertools

    def test_uniform_graph_needs_no_marks(self, grid4x4):
        graph = make_graph(grid4x4, Side.S)
        report = generate_duplicate_free_graph(graph)
        assert report.marked_edges == 0
        assert report.mixed_triangles == 0
