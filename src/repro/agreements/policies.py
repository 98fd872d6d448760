"""Agreement-instantiation policies (Sect. 4.3 of the paper).

Given per-cell sample statistics, a policy decides -- independently for
every pair of adjacent cells -- which input (R or S) is replicated across
that pair:

* **LPiB** (*least points in boundaries*): pick the input with the fewer
  candidate points for replication between the two cells.
* **DIFF**: look at the cell with the greater difference ``|#R - #S|``;
  pick the input with the fewer points inside that cell.
* **Uniform**: always the same input -- this reduces the framework to
  PBSM's universal replication, UNI(R) or UNI(S).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.agreements.graph import PairTypes
from repro.geometry.point import Side
from repro.grid.grid import AdjacentPairs, Grid
from repro.grid.statistics import GridStatistics


class AgreementPolicy(abc.ABC):
    """Strategy deciding the agreement type of one adjacent cell pair."""

    name: str = "abstract"

    @abc.abstractmethod
    def decide(self, stats: GridStatistics, cell_a: int, cell_b: int) -> Side:
        """The input to replicate between two adjacent cells."""

    def decide_pairs(self, stats: GridStatistics, pairs: AdjacentPairs) -> np.ndarray:
        """:meth:`decide` for every pair at once: true where R is replicated.

        This default asks :meth:`decide` pair by pair; the built-in
        policies override it with array algebra that must agree with it.
        """
        return np.fromiter(
            (
                self.decide(stats, a, b) is Side.R
                for a, b in zip(pairs.a.tolist(), pairs.b.tolist())
            ),
            dtype=bool,
            count=len(pairs),
        )


class LPiBPolicy(AgreementPolicy):
    """Least points in boundaries (LPiB).

    Ties in the boundary counts -- overwhelmingly 0-vs-0 under sparse
    samples -- fall back to the total cell counts, which carry far more
    sample mass.  The paper does not specify tie handling; without this
    refinement sampling noise at small scale erodes much of the
    replication gain (see the sampling-rate ablation benchmark).
    """

    name = "lpib"

    def decide(self, stats: GridStatistics, cell_a: int, cell_b: int) -> Side:
        r = stats.pair_candidates(cell_a, cell_b, Side.R)
        s = stats.pair_candidates(cell_a, cell_b, Side.S)
        if r != s:
            return Side.R if r < s else Side.S
        r_total = stats.cell_count(cell_a, Side.R) + stats.cell_count(cell_b, Side.R)
        s_total = stats.cell_count(cell_a, Side.S) + stats.cell_count(cell_b, Side.S)
        return Side.R if r_total <= s_total else Side.S

    def decide_pairs(self, stats: GridStatistics, pairs: AdjacentPairs) -> np.ndarray:
        r, s = (sum(stats.directed_candidates_array(pairs, side)) for side in Side)
        r_total, s_total = (
            stats.cell_counts(side)[pairs.a] + stats.cell_counts(side)[pairs.b]
            for side in Side
        )
        return np.where(r != s, r < s, r_total <= s_total)


class DiffPolicy(AgreementPolicy):
    """Least points in the cell with the greatest ``|#R - #S|`` (DIFF)."""

    name = "diff"

    def decide(self, stats: GridStatistics, cell_a: int, cell_b: int) -> Side:
        r_a, s_a = stats.cell_count(cell_a, Side.R), stats.cell_count(cell_a, Side.S)
        r_b, s_b = stats.cell_count(cell_b, Side.R), stats.cell_count(cell_b, Side.S)
        # Cell with the greater difference decides; ties go to the
        # lower-id cell for determinism.
        if abs(r_a - s_a) >= abs(r_b - s_b):
            r, s = r_a, s_a
        else:
            r, s = r_b, s_b
        return Side.R if r <= s else Side.S

    def decide_pairs(self, stats: GridStatistics, pairs: AdjacentPairs) -> np.ndarray:
        r, s = stats.cell_counts(Side.R), stats.cell_counts(Side.S)
        r_a, s_a, r_b, s_b = r[pairs.a], s[pairs.a], r[pairs.b], s[pairs.b]
        a_decides = np.abs(r_a - s_a) >= np.abs(r_b - s_b)
        return np.where(a_decides, r_a <= s_a, r_b <= s_b)


class UniformPolicy(AgreementPolicy):
    """Universal replication of one input: the PBSM baseline."""

    def __init__(self, side: Side):
        self.side = side
        self.name = f"uni_{side.value.lower()}"

    def decide(self, stats: GridStatistics, cell_a: int, cell_b: int) -> Side:
        return self.side

    def decide_pairs(self, stats: GridStatistics, pairs: AdjacentPairs) -> np.ndarray:
        return np.full(len(pairs), self.side is Side.R)


def instantiate_pair_types(
    grid: Grid, stats: GridStatistics, policy: AgreementPolicy
) -> PairTypes:
    """Decide the agreement type of every adjacent cell pair of a grid."""
    agreed_r = policy.decide_pairs(stats, grid.adjacent_pair_arrays())
    return PairTypes(grid, np.asarray(agreed_r, dtype=bool))
