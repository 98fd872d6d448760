"""Lockstep Algorithm 1 == the scalar reference, mark for mark.

``generate_duplicate_free_graph`` runs Algorithm 1 over every quartet's
row of the graph's arrays at once; ``mark_quartet`` runs it on one
quartet view.  Both must leave the same marks, the same locks and the
same :class:`MarkingReport` -- on every agreement instance of the 2x2
grid under weights chosen to hit each tie-break, on sampled statistics
over larger grids, and on the sabotaged states of ``test_robustness``.
"""

import copy
import itertools
import random

import numpy as np
import pytest

from repro.agreements.graph import EDGE_POSITIONS, AgreementGraph
from repro.agreements.marking import (
    ORDERINGS,
    MarkingError,
    MarkingReport,
    generate_duplicate_free_graph,
    mark_quartet,
    unresolved_mixed_triangles,
)
from repro.agreements.policies import DiffPolicy, LPiBPolicy, instantiate_pair_types
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics
from tests.conftest import all_type_combos, make_graph

_DIAGONAL_COLUMNS = [
    col for col, (tail, head) in enumerate(EDGE_POSITIONS)
    if {tail, head} in ({"bl", "tr"}, {"br", "tl"})
]


def reference(graph: AgreementGraph, ordering: str):
    """Scalar ``mark_quartet`` over each view of a copy of ``graph``."""
    graph = copy.deepcopy(graph)
    report = MarkingReport()
    for sub in graph.quartets.values():
        report.merge(mark_quartet(sub, ordering))
    return graph, report


def assert_lockstep_equals_reference(graph: AgreementGraph, ordering: str) -> MarkingReport:
    expected, expected_report = reference(graph, ordering)
    report = generate_duplicate_free_graph(graph, ordering)
    assert np.array_equal(graph.marked, expected.marked)
    assert np.array_equal(graph.locked, expected.locked)
    assert report == expected_report
    return report


def tie_break_weights(rng: random.Random):
    """``(12,)`` weight rows, each aimed at one comparison of Algorithm 1."""
    yield np.zeros(12)  # every key ties: order falls back to (tail, head)
    yield np.full(12, 7.0)
    within_diagonal = np.array([float(rng.randrange(1000)) for _ in range(12)])
    within_diagonal[_DIAGONAL_COLUMNS] = 5.0  # ties inside the first group only
    yield within_diagonal
    # two values only: equal locked-weight sums through both third vertices
    for _ in range(3):
        yield np.array([float(rng.randrange(2)) for _ in range(12)])
    yield np.array([float(rng.randrange(1000)) for _ in range(12)])
    yield np.array([rng.random() for _ in range(12)])


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_all_64_instances_under_tie_breaking_weights(grid2x2, ordering):
    rng = random.Random(11)
    marked_any = False
    for combo in all_type_combos(grid2x2):
        for weights in tie_break_weights(rng):
            graph = make_graph(grid2x2, combo)
            graph.weight[0] = weights
            report = assert_lockstep_equals_reference(graph, ordering)
            marked_any |= report.marked_edges > 0
            assert report.repaired_triangles == 0
    assert marked_any


def sampled_stats(grid: Grid, seed: int, n: int = 400) -> GridStatistics:
    rng = np.random.default_rng(seed)
    stats = GridStatistics(grid)
    for side in Side:
        # clustered towards one corner so weights differ widely and tie at 0
        xs = grid.mbr.xmin + grid.mbr.width * rng.random(n) ** (1 + side.value.count("R"))
        ys = grid.mbr.ymin + grid.mbr.height * rng.random(n)
        stats.add_points(xs, ys, side)
    return stats


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("policy", [LPiBPolicy(), DiffPolicy()], ids=lambda p: p.name)
@pytest.mark.parametrize("shape", [(3, 3), (6, 5)])
def test_sampled_statistics_on_larger_grids(shape, policy, ordering):
    nx, ny = shape
    grid = Grid(MBR(0, 0, 2 * nx + 1.5, 2 * ny + 1.5), 1.0)
    assert (grid.nx, grid.ny) == shape
    for seed in range(4):
        stats = sampled_stats(grid, seed)
        graph = AgreementGraph(grid, instantiate_pair_types(grid, stats, policy), stats)
        assert graph.weight.any()
        assert_lockstep_equals_reference(graph, ordering)


def test_two_quartet_instances_sampled_from_validate_grid23():
    """Side pairs shared by two quartets are marked independently."""
    grid = Grid(MBR(0, 0, 7.5, 5), 1.0)
    assert (grid.nx, grid.ny) == (3, 2)
    rng = random.Random(7)
    combos = list(itertools.product([Side.R, Side.S], repeat=grid.num_adjacent_pairs))
    assert len(combos) == 2048
    independent = False
    for combo in rng.sample(combos, 160):
        graph = make_graph(grid, combo)
        graph.weight[:] = [[rng.randrange(100) for _ in range(12)] for _ in range(2)]
        assert_lockstep_equals_reference(graph, "paper")
        # cells 1 and 4 form the br-tr pair of quartet 0 and the bl-tl pair of quartet 1
        left, right = (graph.quartets[c].edge(1, 4).marked for c in ((1, 1), (2, 1)))
        independent |= left != right
    assert independent


class TestSabotagedStates:
    """``tests/test_robustness.py``'s cases, through the graph-level call."""

    TYPES = [Side.S, Side.R, Side.R, Side.R, Side.R, Side.R]

    def test_marked_base_edges_raise(self, grid2x2):
        graph = make_graph(grid2x2, self.TYPES)
        sub = graph.quartets[(1, 1)]
        sub.edge(0, 1).marked = True
        sub.edge(1, 0).marked = True
        scalar = copy.deepcopy(graph)
        with pytest.raises(MarkingError) as lockstep_error:
            generate_duplicate_free_graph(graph)
        with pytest.raises(MarkingError) as scalar_error:
            mark_quartet(scalar.quartets[(1, 1)])
        assert str(lockstep_error.value) == str(scalar_error.value)

    def test_everything_locked_is_repaired(self, grid2x2):
        graph = make_graph(grid2x2, self.TYPES)
        graph.locked[:] = True
        report = assert_lockstep_equals_reference(graph, "paper")
        assert report.repaired_triangles >= 1
        assert unresolved_mixed_triangles(graph.quartets[(1, 1)]) == []


def test_second_call_changes_nothing():
    grid = Grid(MBR(0, 0, 15, 12.5), 1.0)
    stats = sampled_stats(grid, 3)
    graph = AgreementGraph(grid, instantiate_pair_types(grid, stats, LPiBPolicy()), stats)
    first = generate_duplicate_free_graph(graph)
    assert first.marked_edges > 0
    marked, locked = graph.marked.copy(), graph.locked.copy()
    second = generate_duplicate_free_graph(graph)
    assert np.array_equal(graph.marked, marked) and np.array_equal(graph.locked, locked)
    assert (second.marked_edges, second.mixed_triangles) == (0, first.mixed_triangles)


def test_unknown_ordering_rejected(grid2x2):
    with pytest.raises(ValueError, match="unknown ordering"):
        generate_duplicate_free_graph(make_graph(grid2x2, Side.R), "bogus")
