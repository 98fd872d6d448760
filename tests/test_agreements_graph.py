"""Unit tests for the graph-of-agreements structures (Def. 4.2)."""

import pytest

from repro.agreements.graph import AgreementGraph
from repro.geometry.point import Side
from tests.conftest import make_graph


class TestQuartetSubgraph:
    def test_one_quartet_on_2x2(self, grid2x2):
        graph = make_graph(grid2x2, Side.R)
        assert set(graph.quartets) == {(1, 1)}

    def test_twelve_directed_edges(self, grid2x2):
        sub = make_graph(grid2x2, Side.R).quartets[(1, 1)]
        assert len(list(sub.edges())) == 12

    def test_edges_paired_and_typed(self, grid2x2):
        sub = make_graph(grid2x2, Side.S).quartets[(1, 1)]
        cells = list(sub.cells.values())
        for a in cells:
            for b in cells:
                if a == b:
                    continue
                e_ab, e_ba = sub.edge(a, b), sub.edge(b, a)
                assert e_ab.side is e_ba.side is Side.S
                assert (e_ab.tail, e_ab.head) == (a, b)

    def test_side_neighbors_and_diagonal(self, grid2x2):
        sub = make_graph(grid2x2, Side.R).quartets[(1, 1)]
        bl, br = sub.cells["bl"], sub.cells["br"]
        tl, tr = sub.cells["tl"], sub.cells["tr"]
        assert set(sub.side_neighbors(bl)) == {br, tl}
        assert sub.diagonal(bl) == tr
        assert sub.diagonal(tr) == bl

    def test_pair_is_diagonal(self, grid2x2):
        sub = make_graph(grid2x2, Side.R).quartets[(1, 1)]
        assert sub.pair_is_diagonal(sub.cells["bl"], sub.cells["tr"])
        assert not sub.pair_is_diagonal(sub.cells["bl"], sub.cells["br"])

    def test_four_triangles(self, grid2x2):
        sub = make_graph(grid2x2, Side.R).quartets[(1, 1)]
        tris = list(sub.triangles())
        assert len(tris) == 4
        assert all(len(set(t)) == 3 for t in tris)

    def test_triangles_of_pair(self, grid2x2):
        sub = make_graph(grid2x2, Side.R).quartets[(1, 1)]
        bl, br = sub.cells["bl"], sub.cells["br"]
        assert len(list(sub.triangles_of_pair(bl, br))) == 2

    def test_third_vertices(self, grid2x2):
        sub = make_graph(grid2x2, Side.R).quartets[(1, 1)]
        thirds = sub.third_vertices(sub.cells["bl"], sub.cells["br"])
        assert set(thirds) == {sub.cells["tl"], sub.cells["tr"]}

    def test_ref_is_corner_coords(self, grid2x2):
        sub = make_graph(grid2x2, Side.R).quartets[(1, 1)]
        assert sub.ref == (2.5, 2.5)


class TestAgreementGraph:
    def test_quartet_count_4x4(self, grid4x4):
        graph = make_graph(grid4x4, Side.R)
        assert len(graph.quartets) == 9

    def test_side_pair_has_copies_in_two_quartets(self, grid4x4):
        graph = make_graph(grid4x4, Side.R)
        a, b = grid4x4.cell_id(1, 1), grid4x4.cell_id(2, 1)
        holders = [
            q for q, sub in graph.quartets.items() if a in sub.pos_of and b in sub.pos_of
        ]
        assert len(holders) == 2
        copies = [graph.quartets[q].edge(a, b) for q in holders]
        assert copies[0] is not copies[1]
        assert copies[0].side == copies[1].side

    def test_pair_type_lookup(self, grid2x2):
        graph = make_graph(grid2x2, Side.S)
        assert graph.pair_type(0, 1) is Side.S

    def test_agreement_counts(self, grid2x2):
        pairs = [frozenset(p[:2]) for p in grid2x2.adjacent_pairs()]
        types = [Side.R, Side.R, Side.S, Side.S, Side.S, Side.S]
        graph = AgreementGraph(grid2x2, dict(zip(pairs, types)))
        counts = graph.agreement_counts()
        assert counts[Side.R] == 2
        assert counts[Side.S] == 4

    def test_num_marked_edges_initially_zero(self, grid4x4):
        assert not make_graph(grid4x4, Side.R).marked.any()

    def test_weights_default_zero_without_stats(self, grid2x2):
        sub = make_graph(grid2x2, Side.R).quartets[(1, 1)]
        assert all(e.weight == 0.0 for e in sub.edges())
