"""Unit tests for per-cell sample statistics."""

import numpy as np
import pytest

from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics


@pytest.fixture
def stats4x4(grid4x4):
    return GridStatistics(grid4x4)


class TestCollection:
    def test_totals(self, grid4x4, stats4x4):
        stats4x4.add_points(np.array([1.0, 1.1, 6.0]), np.array([1.0, 1.2, 6.0]), Side.R)
        cell00 = grid4x4.cell_id(0, 0)
        cell22 = grid4x4.cell_id(2, 2)
        assert stats4x4.cell_count(cell00, Side.R) == 2
        assert stats4x4.cell_count(cell22, Side.R) == 1
        assert stats4x4.cell_count(cell00, Side.S) == 0
        assert stats4x4.cell_counts(Side.R).sum() == 3

    def test_strip_counts(self, grid4x4, stats4x4):
        # cell (0,0) spans [0,2.5]^2; x=2.0 is within eps=1 of the E border
        stats4x4.add_points(np.array([2.0]), np.array([1.25]), Side.S)
        cell = grid4x4.cell_id(0, 0)
        assert stats4x4.strip_count(cell, "E", Side.S) == 1
        assert stats4x4.strip_count(cell, "W", Side.S) == 0
        assert stats4x4.strip_count(cell, "N", Side.S) == 0

    def test_interior_point_in_no_strip(self, grid4x4, stats4x4):
        stats4x4.add_points(np.array([1.25]), np.array([1.25]), Side.R)
        cell = grid4x4.cell_id(0, 0)
        for border in "EWNS":
            assert stats4x4.strip_count(cell, border, Side.R) == 0

    def test_corner_counts_quarter_disc(self, grid4x4, stats4x4):
        # near the NE corner of cell (0,0) at (2.5, 2.5)
        stats4x4.add_points(np.array([2.0, 1.6]), np.array([2.0, 1.6]), Side.R)
        cell = grid4x4.cell_id(0, 0)
        # (2.0, 2.0): dist to corner = sqrt(0.5) <= 1; (1.6, 1.6): sqrt(1.62) > 1
        assert stats4x4.corner_count(cell, "NE", Side.R) == 1

    def test_point_in_two_strips(self, grid4x4, stats4x4):
        stats4x4.add_points(np.array([2.0]), np.array([2.0]), Side.R)
        cell = grid4x4.cell_id(0, 0)
        assert stats4x4.strip_count(cell, "E", Side.R) == 1
        assert stats4x4.strip_count(cell, "N", Side.R) == 1

    def test_shape_mismatch_rejected(self, stats4x4):
        with pytest.raises(ValueError):
            stats4x4.add_points(np.array([1.0, 2.0]), np.array([1.0]), Side.R)


class TestPairQueries:
    def test_side_pair_candidates(self, grid4x4, stats4x4):
        a, b = grid4x4.cell_id(0, 0), grid4x4.cell_id(1, 0)
        # one R point in a's E strip, one in b's W strip, one interior
        stats4x4.add_points(np.array([2.0, 2.7, 1.2]), np.array([1.0, 1.0, 1.0]), Side.R)
        assert stats4x4.pair_candidates(a, b, Side.R) == 2
        assert stats4x4.pair_candidates(b, a, Side.R) == 2  # symmetric

    def test_diagonal_pair_candidates(self, grid4x4, stats4x4):
        a, d = grid4x4.cell_id(0, 0), grid4x4.cell_id(1, 1)
        stats4x4.add_points(np.array([2.2, 2.8]), np.array([2.2, 2.8]), Side.S)
        assert stats4x4.pair_candidates(a, d, Side.S) == 2

    def test_directed_candidates(self, grid4x4, stats4x4):
        a, b = grid4x4.cell_id(0, 0), grid4x4.cell_id(1, 0)
        stats4x4.add_points(np.array([2.0]), np.array([1.0]), Side.R)
        assert stats4x4.directed_candidates(a, b, Side.R) == 1
        assert stats4x4.directed_candidates(b, a, Side.R) == 0

    def test_edge_weight_is_product(self, grid4x4, stats4x4):
        a, b = grid4x4.cell_id(0, 0), grid4x4.cell_id(1, 0)
        stats4x4.add_points(np.array([2.0]), np.array([1.0]), Side.R)  # in a's E strip
        stats4x4.add_points(np.array([3.0, 4.0, 4.4]), np.array([1.0, 1.0, 1.0]), Side.S)
        # 1 R point replicated from a, times 3 S points in b
        assert stats4x4.edge_weight(a, b, Side.R) == 3

    def test_non_adjacent_rejected(self, grid4x4, stats4x4):
        with pytest.raises(ValueError):
            stats4x4.pair_candidates(
                grid4x4.cell_id(0, 0), grid4x4.cell_id(2, 0), Side.R
            )


def test_example_4_4_edge_weights():
    """Example 4.4 of the paper, reconstructed on a 2x2 grid.

    Cell B holds one R point in its strip towards A; cell A holds three S
    points.  The weight of the R-typed edge B->A must be 1 * 3 = 3.
    """
    grid = Grid(MBR(0, 0, 5, 5), eps=1.0)
    stats = GridStatistics(grid)
    a = grid.cell_id(0, 0)
    b = grid.cell_id(1, 0)
    # r2 in B near the border to A
    stats.add_points(np.array([2.8]), np.array([1.0]), Side.R)
    # s1, s2, s3 anywhere in A
    stats.add_points(np.array([0.5, 1.0, 2.0]), np.array([0.5, 1.0, 1.1]), Side.S)
    assert stats.edge_weight(b, a, Side.R) == 3


# ----------------------------------------------------------------------
# the array adjacency answers exactly what the scalar queries answer
# ----------------------------------------------------------------------
def random_stats(grid, seed, n=400):
    """Few points per cell, so zero counts and ties are common."""
    rng = np.random.default_rng(seed)
    stats = GridStatistics(grid)
    for side in Side:
        stats.add_points(
            rng.uniform(grid.mbr.xmin, grid.mbr.xmax, n),
            rng.uniform(grid.mbr.ymin, grid.mbr.ymax, n),
            side,
        )
    return stats


ADJACENCY_GRIDS = [
    Grid(MBR(0, 0, 10, 10), eps=1.0),  # 4x4
    Grid(MBR(0, 0, 17.5, 7.5), eps=1.0),  # 7x3
    Grid(MBR(0, 0, 7.5, 2.5), eps=1.0),  # a single row: no corner pairs
    Grid(MBR(0, 0, 2.5, 2.5), eps=1.0),  # a single cell: no pairs
]


@pytest.mark.parametrize("grid", ADJACENCY_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_adjacent_pair_arrays_mirror_adjacent_pairs(grid):
    pairs = grid.adjacent_pair_arrays()
    listed = list(grid.adjacent_pairs())
    assert len(pairs) == len(listed) == grid.num_adjacent_pairs
    assert list(zip(pairs.a.tolist(), pairs.b.tolist())) == [p[:2] for p in listed]
    assert [("side" if f < 4 else "corner") for f in pairs.facing_a.tolist()] == [
        p[2] for p in listed
    ]


def test_adjacent_pair_arrays_are_computed_once_per_grid():
    """One read-only copy per grid, invisible to equality, hashing and pickling."""
    import pickle

    grid = Grid(MBR(0, 0, 17.5, 7.5), eps=1.0)
    pristine = pickle.dumps(grid)
    pairs = grid.adjacent_pair_arrays()
    assert grid.adjacent_pair_arrays() is pairs
    for column in (pairs.a, pairs.b, pairs.facing_a, pairs.facing_b):
        with pytest.raises(ValueError):
            column[0] = 0
    twin = Grid(MBR(0, 0, 17.5, 7.5), eps=1.0)
    assert grid == twin and hash(grid) == hash(twin)
    assert pickle.dumps(grid) == pristine
    copy = pickle.loads(pristine)
    assert copy == grid and copy.adjacent_pair_arrays() is not pairs
    assert np.array_equal(copy.adjacent_pair_arrays().a, pairs.a)


@pytest.mark.parametrize("grid", ADJACENCY_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
@pytest.mark.parametrize("seed", [0, 1])
def test_array_queries_equal_scalar_queries(grid, seed):
    stats = random_stats(grid, seed)
    pairs = grid.adjacent_pair_arrays()
    ab = list(zip(pairs.a.tolist(), pairs.b.tolist()))
    for side in Side:
        fwd, bwd = stats.directed_candidates_array(pairs, side)
        assert fwd.tolist() == [stats.directed_candidates(a, b, side) for a, b in ab]
        assert bwd.tolist() == [stats.directed_candidates(b, a, side) for a, b in ab]
        assert (fwd + bwd).tolist() == [stats.pair_candidates(a, b, side) for a, b in ab]
        assert stats.cell_counts(side).tolist() == [
            stats.cell_count(c, side) for c in range(grid.num_cells)
        ]
    agreed_r = np.random.default_rng(seed).random(len(pairs)) < 0.5
    types = [Side.R if r else Side.S for r in agreed_r.tolist()]
    w_ab, w_ba = stats.edge_weights_array(pairs, agreed_r)
    assert w_ab.tolist() == [stats.edge_weight(a, b, t) for (a, b), t in zip(ab, types)]
    assert w_ba.tolist() == [stats.edge_weight(b, a, t) for (a, b), t in zip(ab, types)]

    # replica inflow: per pair, the agreed input's candidates cross both ways
    for mask, replicated in ((agreed_r, None), (None, Side.S), (None, None)):
        want = {side: [0.0] * grid.num_cells for side in Side}
        for (a, b), t in zip(ab, types):
            for side in (t,) if mask is not None else (replicated,) if replicated else ():
                want[side][b] += stats.directed_candidates(a, b, side)
                want[side][a] += stats.directed_candidates(b, a, side)
        got = stats.replica_inflows(pairs, mask, replicated)
        assert {side: arr.tolist() for side, arr in got.items()} == want


@pytest.mark.parametrize("grid", ADJACENCY_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
@pytest.mark.parametrize("seed", [0, 1])
def test_candidate_rows_are_the_nonzero_directed_candidates(grid, seed):
    """One row per nonzero ``directed_candidates(tail, head)``, R's first;
    a grid-rim border faces no cell and holds no row."""
    stats = random_stats(grid, seed)
    rows = stats.candidate_rows()
    pairs = rows.pairs
    got = {}
    for i, (tail, head) in enumerate(zip(rows.tail.tolist(), rows.head.tolist())):
        side = Side.R if i < rows.num_r else Side.S
        a, b = min(tail, head), max(tail, head)
        assert (pairs.a[i], pairs.b[i]) == (a, b)
        assert grid.adjacent_pair_index(a, b) >= 0  # adjacent, or it raises
        got[side, tail, head] = int(rows.count[i])
    want = {
        (side, tail, head): stats.directed_candidates(tail, head, side)
        for a, b, _ in grid.adjacent_pairs()
        for tail, head in ((a, b), (b, a))
        for side in Side
        if stats.directed_candidates(tail, head, side)
    }
    assert got == want
    # an LPiB decision over the rows is the decision over their pairs
    from repro.agreements.policies import LPiBPolicy

    full = LPiBPolicy().decide_pairs(stats, grid.adjacent_pair_arrays())
    index = [grid.adjacent_pair_index(a, b) for a, b in zip(pairs.a.tolist(), pairs.b.tolist())]
    assert LPiBPolicy().decide_pairs(stats, pairs).tolist() == full[index].tolist()


@pytest.mark.parametrize("grid", ADJACENCY_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_sample_halves_fill_what_add_points_fills(grid):
    """One pass over four blocks (first half R, S; second half R, S) fills
    the counts two ``add_points`` calls a half would."""
    rng = np.random.default_rng(3)
    blocks = [
        (rng.uniform(grid.mbr.xmin, grid.mbr.xmax, k), rng.uniform(grid.mbr.ymin, grid.mbr.ymax, k))
        for k in (40, 25, 39, 0)
    ]
    halves = GridStatistics.sample_halves(
        grid,
        np.concatenate([xs for xs, _ in blocks]),
        np.concatenate([ys for _, ys in blocks]),
        [len(xs) for xs, _ in blocks],
    )
    for half, stats in enumerate(halves):
        want = GridStatistics(grid)
        for side, (xs, ys) in zip(Side, blocks[2 * half : 2 * half + 2]):
            want.add_points(xs, ys, side)
        for side in Side:
            assert stats.cell_counts(side).tolist() == want.cell_counts(side).tolist()
            assert stats.cell_counts(side).dtype == np.int64
            for cell in range(grid.num_cells):
                for border in ("E", "W", "N", "S"):
                    assert stats.strip_count(cell, border, side) == want.strip_count(
                        cell, border, side
                    )
                for corner in ("NE", "NW", "SE", "SW"):
                    assert stats.corner_count(cell, corner, side) == want.corner_count(
                        cell, corner, side
                    )
