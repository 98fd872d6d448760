"""Unit tests for agreement-instantiation policies (Sect. 4.3)."""

import numpy as np
import pytest

from repro.agreements.policies import (
    DiffPolicy,
    LPiBPolicy,
    UniformPolicy,
    instantiate_pair_types,
)
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics


@pytest.fixture
def grid():
    return Grid(MBR(0, 0, 5, 5), eps=1.0)  # 2x2


def add(stats, side, coords):
    xs = np.array([c[0] for c in coords], dtype=float)
    ys = np.array([c[1] for c in coords], dtype=float)
    stats.add_points(xs, ys, side)


class TestLPiB:
    def test_picks_fewer_boundary_candidates(self, grid):
        stats = GridStatistics(grid)
        a, b = grid.cell_id(0, 0), grid.cell_id(1, 0)
        # 3 R candidates in the shared strips, 1 S candidate
        add(stats, Side.R, [(2.0, 1.0), (2.2, 0.5), (2.8, 1.2)])
        add(stats, Side.S, [(2.9, 0.4)])
        assert LPiBPolicy().decide(stats, a, b) is Side.S

    def test_ignores_interior_points(self, grid):
        stats = GridStatistics(grid)
        a, b = grid.cell_id(0, 0), grid.cell_id(1, 0)
        # many interior R points, but only strip points count
        add(stats, Side.R, [(0.5, 0.5), (0.6, 1.0), (1.0, 1.2), (2.1, 1.0)])
        add(stats, Side.S, [(2.0, 0.5), (2.9, 1.1)])
        assert LPiBPolicy().decide(stats, a, b) is Side.R

    def test_tie_prefers_r(self, grid):
        stats = GridStatistics(grid)
        a, b = grid.cell_id(0, 0), grid.cell_id(1, 0)
        assert LPiBPolicy().decide(stats, a, b) is Side.R

    def test_diagonal_pair_uses_corner_counts(self, grid):
        stats = GridStatistics(grid)
        a, d = grid.cell_id(0, 0), grid.cell_id(1, 1)
        # R point near the shared corner (2.5, 2.5); S point near it too but
        # in the strip only (outside the quarter disc)
        add(stats, Side.R, [(2.2, 2.2), (2.4, 2.4)])
        add(stats, Side.S, [(2.6, 2.7)])
        assert LPiBPolicy().decide(stats, a, d) is Side.S


class TestDiff:
    def test_greater_difference_cell_decides(self, grid):
        stats = GridStatistics(grid)
        a, b = grid.cell_id(0, 0), grid.cell_id(1, 0)
        # cell a: 1 R vs 3 S (diff 2); cell b: 2 R vs 2 S (diff 0)
        add(stats, Side.R, [(1.0, 1.0)])
        add(stats, Side.S, [(0.5, 0.5), (1.0, 0.5), (1.5, 1.5)])
        add(stats, Side.R, [(3.0, 1.0), (4.0, 1.0)])
        add(stats, Side.S, [(3.5, 1.0), (4.4, 0.5)])
        # cell a decides; its minority set is R
        assert DiffPolicy().decide(stats, a, b) is Side.R

    def test_example_4_3_policies_diverge(self, grid):
        """Example 4.3 of the paper, cells A and D (diagonal pair).

        The replication area holds 2 S candidates (s3, s7) and 3 R
        candidates (r1, r7, r8), so LPiB agrees on S; but cell A has the
        greater count difference (|1 R - 3 S| = 2 vs |2 R - 2 S| = 0) and
        its minority set is R, so DIFF agrees on R.
        """
        stats = GridStatistics(grid)
        a, d = grid.cell_id(0, 0), grid.cell_id(1, 1)
        # cell A: r1 near the corner; s3 near the corner, s1, s2 away
        add(stats, Side.R, [(2.3, 2.3)])
        add(stats, Side.S, [(2.2, 2.2), (0.4, 0.6), (1.2, 0.4)])
        # cell D: r7, r8 near the corner; s7 near the corner, s8 away
        add(stats, Side.R, [(2.7, 2.7), (2.9, 2.6)])
        add(stats, Side.S, [(2.8, 2.8), (4.4, 4.0)])
        assert stats.pair_candidates(a, d, Side.R) == 3
        assert stats.pair_candidates(a, d, Side.S) == 2
        assert LPiBPolicy().decide(stats, a, d) is Side.S
        assert DiffPolicy().decide(stats, a, d) is Side.R

    def test_minority_tie_prefers_r(self, grid):
        stats = GridStatistics(grid)
        a, b = grid.cell_id(0, 0), grid.cell_id(1, 0)
        add(stats, Side.R, [(1.0, 1.0)])
        add(stats, Side.S, [(1.2, 1.2)])
        assert DiffPolicy().decide(stats, a, b) is Side.R


class TestUniform:
    def test_always_same_side(self, grid):
        stats = GridStatistics(grid)
        add(stats, Side.R, [(2.0, 1.0)] * 5)
        policy = UniformPolicy(Side.S)
        for a, b, _k in grid.adjacent_pairs():
            assert policy.decide(stats, a, b) is Side.S

    def test_name(self):
        assert UniformPolicy(Side.R).name == "uni_r"
        assert UniformPolicy(Side.S).name == "uni_s"


class TestInstantiate:
    def test_covers_every_adjacent_pair(self, grid4x4):
        stats = GridStatistics(grid4x4)
        types = instantiate_pair_types(grid4x4, stats, UniformPolicy(Side.R))
        expected = {frozenset(p[:2]) for p in grid4x4.adjacent_pairs()}
        assert set(types) == expected
        assert all(t is Side.R for t in types.values())

    def test_policy_names(self):
        assert LPiBPolicy().name == "lpib"
        assert DiffPolicy().name == "diff"


class TestDecidePairs:
    """The array decisions must be the scalar ones, ties included."""

    @pytest.mark.parametrize("policy", [LPiBPolicy(), DiffPolicy(), UniformPolicy(Side.S)],
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("n", [0, 30, 400])
    def test_equal_to_pair_by_pair_decide(self, policy, n):
        from repro.agreements.policies import AgreementPolicy

        grid = Grid(MBR(0, 0, 15, 10), eps=1.0)  # 6x4
        rng = np.random.default_rng(n)
        stats = GridStatistics(grid)
        for side in Side:
            stats.add_points(rng.uniform(0, 15, n), rng.uniform(0, 10, n), side)
        pairs = grid.adjacent_pair_arrays()
        scalar = AgreementPolicy.decide_pairs(policy, stats, pairs)
        assert policy.decide_pairs(stats, pairs).tolist() == scalar.tolist()
        if n == 30 and policy.name == "lpib":
            # the sparse sample must actually exercise both tie levels
            r, s = (sum(stats.directed_candidates_array(pairs, side)) for side in Side)
            assert (r == s).any() and (r != s).any()
        types = instantiate_pair_types(grid, stats, policy)
        assert list(types) == [frozenset(p[:2]) for p in grid.adjacent_pairs()]
        assert [t is Side.R for t in types.values()] == scalar.tolist()
