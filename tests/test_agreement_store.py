"""The columnar agreement graph: one array store, views not copies.

``AgreementGraph`` keeps every quartet's edges in ``(quartets, 12)``
arrays; ``QuartetSubgraph`` / ``DirectedEdge`` / ``pair_types`` are views
onto them.  These tests pin the view contract (a write through any view
is seen everywhere, including by an assigner built afterwards), the
array layout against the grid's scalar addressing, and the size of the
object graph a cached bundle drags along.
"""

import numpy as np
import pytest

from repro.agreements.graph import EDGE_POSITIONS, POSITIONS, AgreementGraph, PairTypes
from repro.agreements.marking import generate_duplicate_free_graph
from repro.agreements.policies import (
    AgreementPolicy,
    LPiBPolicy,
    instantiate_pair_types,
)
from repro.data.generators import gaussian_clusters, uniform
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics
from repro.joins.distance_join import JoinConfig, distance_join
from repro.replication.assign import AdaptiveAssigner
from repro.serving import ArtifactCache, estimate_nbytes
from tests.conftest import make_graph

GRID_SHAPES = [(1, 1), (1, 4), (4, 1), (2, 2), (2, 5), (3, 2), (4, 4), (6, 5)]


def grid_of(nx: int, ny: int) -> Grid:
    grid = Grid(MBR(0, 0, 2 * nx + 1.5, 2 * ny + 1.5), 1.0)
    assert (grid.nx, grid.ny) == (nx, ny)
    return grid


def sampled_stats(grid: Grid, seed: int = 5) -> GridStatistics:
    stats = GridStatistics(grid)
    for side, points in ((Side.R, uniform(600, seed=seed)), (Side.S, gaussian_clusters(600, seed=seed + 1))):
        stats.add_points(
            grid.mbr.xmin + points.xs * grid.mbr.width,
            grid.mbr.ymin + points.ys * grid.mbr.height,
            side,
        )
    return stats


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_adjacent_pair_index_is_the_enumeration_order(shape):
    grid = grid_of(*shape)
    for index, (a, b, _kind) in enumerate(grid.adjacent_pairs()):
        assert grid.adjacent_pair_index(a, b) == index == grid.adjacent_pair_index(b, a)
    for a, b in ((0, 0), (0, grid.num_cells), (-1, 0), (0, 2 * grid.nx)):
        with pytest.raises(ValueError):
            grid.adjacent_pair_index(a, b)


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_store_layout_matches_scalar_addressing(shape):
    grid = grid_of(*shape)
    stats = sampled_stats(grid)
    types = instantiate_pair_types(grid, stats, LPiBPolicy())
    graph = AgreementGraph(grid, types, stats)
    corners = list(grid.interior_corners())
    assert list(graph.quartets) == corners
    assert graph.cells.shape == (len(corners), 4)
    assert graph.is_r.shape == graph.weight.shape == graph.marked.shape == (len(corners), 12)
    for row, (corner, sub) in enumerate(graph.quartets.items()):
        assert sub.corner == corner and sub.ref == grid.corner_coords(*corner)
        assert sub.cells == grid.quartet_cells(*corner)
        assert graph.cells[row].tolist() == [sub.cells[pos] for pos in POSITIONS]
        for col, ((tail, head), e) in enumerate(zip(EDGE_POSITIONS, sub.edges())):
            assert (e.tail, e.head) == (sub.cells[tail], sub.cells[head])
            assert e.side is types[frozenset((e.tail, e.head))]
            assert e.side is (Side.R if graph.is_r[row, col] else Side.S)
            assert e.weight == stats.edge_weight(e.tail, e.head, e.side) == graph.weight[row, col]
    assert (1, 0) not in graph.quartets and graph.quartets.get((0, 1)) is None


class TestPairTypesMapping:
    def test_equals_the_dict_it_replaces(self, grid4x4):
        stats = sampled_stats(grid4x4)
        types = instantiate_pair_types(grid4x4, stats, LPiBPolicy())
        assert isinstance(types, PairTypes)
        as_dict = {
            frozenset((a, b)): LPiBPolicy().decide(stats, a, b)
            for a, b, _kind in grid4x4.adjacent_pairs()
        }
        assert types == as_dict and dict(types) == as_dict
        assert list(types) == list(as_dict) and len(types) == grid4x4.num_adjacent_pairs
        assert list(types.values()) == list(as_dict.values())
        with pytest.raises(KeyError):
            types[frozenset((0, 2))]
        with pytest.raises(KeyError):
            types[frozenset((0,))]

    def test_plain_dict_still_accepted(self, grid4x4):
        types = instantiate_pair_types(grid4x4, sampled_stats(grid4x4), LPiBPolicy())
        from_dict = AgreementGraph(grid4x4, dict(types))
        from_mapping = AgreementGraph(grid4x4, types)
        assert np.array_equal(from_dict.agreed_r, from_mapping.agreed_r)
        assert np.array_equal(from_dict.is_r, from_mapping.is_r)
        assert from_dict.pair_types == dict(types)
        assert from_dict.agreement_counts() == from_mapping.agreement_counts()


class TestViewsWriteThrough:
    # bl-br is the only S pair: both triangles over it are mixed
    TYPES = [Side.S, Side.R, Side.R, Side.R, Side.R, Side.R]

    def test_edge_writes_reach_the_arrays_and_other_views(self, grid2x2):
        graph = make_graph(grid2x2, self.TYPES)
        sub, other = graph.quartet((1, 1)), graph.quartets[(1, 1)]
        assert sub is not other
        e = sub.edge(2, 0)
        e.marked = True
        e.locked = True
        e.weight = 2.5
        col = [(sub.cells[t], sub.cells[h]) for t, h in EDGE_POSITIONS].index((2, 0))
        assert graph.marked[0, col] and graph.locked[0, col] and graph.weight[0, col] == 2.5
        assert graph.marked.sum() == graph.locked.sum() == 1
        seen = other.edge(2, 0)
        assert seen is not e and seen.marked and seen.locked and seen.weight == 2.5
        assert [(m.tail, m.head) for m in other.marked_edges()] == [(2, 0)]
        assert graph.num_marked_edges() == 1
        other.reset_marks()
        assert not e.marked and not e.locked
        assert not graph.marked.any() and not graph.locked.any()

    def test_assigner_built_afterwards_sees_view_writes(self, grid2x2):
        """A point of tl's merged area: tl -> bl is marked through a view,
        so the point is withheld from bl in both assign paths."""
        x, y = 2.0, 3.0  # in tl (cell 2), within eps of both inner borders
        graph = make_graph(grid2x2, self.TYPES)
        before = AdaptiveAssigner(grid2x2, graph)
        assert before.assign(x, y, Side.R) == (2, 0, 1, 3)
        graph.quartet((1, 1)).edge(2, 0).marked = True
        after = AdaptiveAssigner(grid2x2, graph)
        assert after.assign(x, y, Side.R) == (2, 1, 3)
        cells, idxs = after.assign_batch(np.array([x]), np.array([y]), Side.R)
        assert cells.tolist() == [2, 1, 3] and idxs.tolist() == [0, 0, 0]
        graph.quartet((1, 1)).reset_marks()
        cells, _ = AdaptiveAssigner(grid2x2, graph).assign_batch(np.array([x]), np.array([y]), Side.R)
        assert cells.tolist() == [2, 0, 1, 3]

    def test_lockstep_marks_are_visible_through_views(self, grid2x2):
        graph = make_graph(grid2x2, self.TYPES)
        sub = graph.quartet((1, 1))  # taken before marking
        report = generate_duplicate_free_graph(graph)
        assert report.marked_edges == len(sub.marked_edges()) == graph.num_marked_edges() > 0


class _ScalarOnlyLPiB(AgreementPolicy):
    """A user policy that overrides ``decide`` only (base ``decide_pairs``)."""

    name = "scalar_lpib"

    def decide(self, stats, cell_a, cell_b):
        return LPiBPolicy().decide(stats, cell_a, cell_b)


def test_policy_overriding_only_decide_builds_the_same_graph():
    grid = grid_of(6, 5)
    stats = sampled_stats(grid)
    graphs = []
    for policy in (_ScalarOnlyLPiB(), LPiBPolicy()):
        graph = AgreementGraph(grid, instantiate_pair_types(grid, stats, policy), stats)
        generate_duplicate_free_graph(graph)
        graphs.append(graph)
    custom, builtin = graphs
    assert dict(custom.pair_types) == dict(builtin.pair_types)
    for name in ("agreed_r", "is_r", "weight", "marked", "locked"):
        assert np.array_equal(getattr(custom, name), getattr(builtin, name)), name
    assert builtin.marked.any()


def _cached_bundle(eps: float) -> dict:
    r, s = uniform(3000, seed=1), uniform(3000, seed=2)
    cache = ArtifactCache(1 << 30)
    # hash placement: the LPT table is a dict over joinable cells by design
    cfg = JoinConfig(
        eps=eps, method="lpib", mbr=MBR(0, 0, 1, 1), cell_assignment="hash",
        artifact_cache=cache, artifact_key=("bundle", eps),
    )
    distance_join(r, s, cfg)
    return cache.get(("bundle", eps))


def test_cached_bundle_object_graph_is_independent_of_grid_size():
    """``ArtifactCache.put`` sizes a bundle by walking it: the walk must not
    grow with the number of quartets (it visited 12 edge objects each)."""
    visited = {}
    for cells_per_axis, eps in ((9, 0.05), (40, 0.0122)):
        bundle = _cached_bundle(eps)
        grid = bundle["grid"]
        assert (grid.nx, grid.ny) == (cells_per_axis, cells_per_axis)
        seen: set[int] = set()
        nbytes = estimate_nbytes(bundle, seen)
        visited[cells_per_axis] = len(seen)
        graph = bundle["assigner"].graph
        assert nbytes >= graph.weight.nbytes + graph.cells.nbytes
    assert abs(visited[40] - visited[9]) < 50, visited
    assert nbytes < 2_000_000


def test_evicted_bundle_is_freed_without_the_cycle_collector():
    """A resident server evicts bundles all day: their arrays must go with
    the last reference, not wait for a generation-2 collection."""
    import gc
    import weakref

    bundle = _cached_bundle(0.05)
    graph = weakref.ref(bundle["assigner"].graph)
    assert len(graph().quartets) == 64  # views and mappings were handed out
    gc.collect()
    gc.disable()
    try:
        del bundle
        assert graph() is None
    finally:
        gc.enable()
