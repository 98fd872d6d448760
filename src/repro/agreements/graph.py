"""Graph-of-agreements data structures (Def. 4.2 of the paper).

The graph is a directed, typed, weighted multigraph over grid cells.  Two
adjacent cells are connected by a pair of opposite directed edges of the
same type (the *agreement type*): type R means points of input R are
replicated between the cells, type S likewise.  Cells that are
side-adjacent belong to two quartets, so they are connected by **two**
pairs of edges -- one pair per quartet subgraph; the pairs share their type
(it is a property of the cell pair) but are marked independently, because
markings act on the duplicate-prone areas near each quartet's own corner.

The subgraph of one quartet therefore holds 12 directed edges: two per
unordered pair among its four mutually adjacent cells.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Side
from repro.grid.grid import AdjacentPairs, Grid
from repro.grid.statistics import GridStatistics

#: Quartet-relative cell positions.
POSITIONS = ("bl", "br", "tl", "tr")

#: Side-adjacent positions within a quartet.
SIDE_NEIGHBORS = {
    "bl": ("br", "tl"),
    "br": ("bl", "tr"),
    "tl": ("tr", "bl"),
    "tr": ("tl", "br"),
}

#: Diagonally opposite position within a quartet.
DIAGONAL = {"bl": "tr", "br": "tl", "tl": "br", "tr": "bl"}

#: The six unordered position pairs of a quartet.
PAIR_POSITIONS = tuple(
    (pos_a, pos_b) for i, pos_a in enumerate(POSITIONS) for pos_b in POSITIONS[i + 1 :]
)

#: ``(tail, head)`` positions of a quartet's 12 directed edges, in the order
#: :meth:`QuartetSubgraph.edges` yields them: both directions of each pair.
EDGE_POSITIONS = tuple(
    edge for a, b in PAIR_POSITIONS for edge in ((a, b), (b, a))
)

#: The four triangles (triples of positions) of a quartet subgraph.
TRIANGLES = (
    ("bl", "br", "tl"),
    ("bl", "br", "tr"),
    ("bl", "tl", "tr"),
    ("br", "tl", "tr"),
)


@dataclass
class DirectedEdge:
    """One directed edge of a quartet subgraph.

    ``tail -> head`` of type ``side`` means: points of input ``side`` are
    replicated from cell ``tail`` to cell ``head``.  ``marked`` excludes the
    duplicate-prone-area points of ``tail`` from that replication
    (Sect. 4.5.1); ``locked`` only forbids future marking (Sect. 4.5.3).
    """

    tail: int
    head: int
    side: Side
    weight: float = 0.0
    marked: bool = False
    locked: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("M" if self.marked else "") + ("L" if self.locked else "")
        return f"e({self.tail}->{self.head},{self.side}{',' + flags if flags else ''})"


class QuartetSubgraph:
    """The fully-connected four-vertex subgraph of one quartet."""

    def __init__(
        self,
        corner: tuple[int, int],
        ref: tuple[float, float],
        cells: dict[str, int],
        pair_types: Mapping[frozenset, Side],
        weights: Mapping[tuple[int, int], float] | None = None,
    ):
        self.corner = corner
        self.ref = ref
        self.cells = dict(cells)
        self.pos_of = {cid: pos for pos, cid in self.cells.items()}
        if len(self.pos_of) != 4:
            raise ValueError("quartet must consist of four distinct cells")
        self._edges: dict[tuple[int, int], DirectedEdge] = {}
        for pos_a, pos_b in PAIR_POSITIONS:
            a, b = self.cells[pos_a], self.cells[pos_b]
            side = pair_types[frozenset((a, b))]
            w_ab, w_ba = (weights[(a, b)], weights[(b, a)]) if weights else (0.0, 0.0)
            self._edges[(a, b)] = DirectedEdge(a, b, side, w_ab)
            self._edges[(b, a)] = DirectedEdge(b, a, side, w_ba)

    # ------------------------------------------------------------------
    def edge(self, tail: int, head: int) -> DirectedEdge:
        """The directed edge between two cells of this quartet."""
        return self._edges[(tail, head)]

    def edges(self):
        """All 12 directed edges, in :data:`EDGE_POSITIONS` order."""
        return self._edges.values()

    def side_neighbors(self, cell_id: int) -> tuple[int, int]:
        """The two side-adjacent quartet cells of ``cell_id``."""
        pos = self.pos_of[cell_id]
        a, b = SIDE_NEIGHBORS[pos]
        return (self.cells[a], self.cells[b])

    def diagonal(self, cell_id: int) -> int:
        """The quartet cell diagonally opposite ``cell_id``."""
        return self.cells[DIAGONAL[self.pos_of[cell_id]]]

    def pair_is_diagonal(self, a: int, b: int) -> bool:
        """Whether two quartet cells touch at the reference point only."""
        return DIAGONAL[self.pos_of[a]] == self.pos_of[b]

    def triangles(self):
        """The four triangles, as triples of cell ids."""
        for tri in TRIANGLES:
            yield tuple(self.cells[p] for p in tri)

    def triangles_of_pair(self, a: int, b: int):
        """The (two) triangles containing both cells ``a`` and ``b``."""
        for tri in self.triangles():
            if a in tri and b in tri:
                yield tri

    def third_vertices(self, a: int, b: int) -> list[int]:
        """Cells completing a triangle with the pair ``(a, b)``."""
        return [c for c in self.cells.values() if c not in (a, b)]

    def marked_edges(self) -> list[DirectedEdge]:
        """All currently marked edges."""
        return [e for e in self._edges.values() if e.marked]

    def reset_marks(self) -> None:
        """Clear all marks and locks (used by tests and ablations)."""
        for e in self._edges.values():
            e.marked = False
            e.locked = False


def agreed_r_mask(pairs: AdjacentPairs, pair_types: Mapping[frozenset, Side]) -> np.ndarray:
    """``pair_types`` as an array over ``pairs``: true where R is replicated."""
    return np.fromiter(
        (
            pair_types[frozenset(pair)] is Side.R
            for pair in zip(pairs.a.tolist(), pairs.b.tolist())
        ),
        dtype=bool,
        count=len(pairs),
    )


class AgreementGraph:
    """The full graph of agreements over a grid.

    Exposes the global agreement type of every adjacent cell pair plus the
    per-quartet subgraphs whose edges carry the marking state.
    """

    def __init__(
        self,
        grid: Grid,
        pair_types: dict[frozenset, Side],
        stats: GridStatistics | None = None,
    ):
        self.grid = grid
        self.pair_types = dict(pair_types)
        self.stats = stats
        weights = None
        if stats is not None:
            # every directed edge weight (Sect. 4.3) in one array pass
            pairs = grid.adjacent_pair_arrays()
            w_ab, w_ba = stats.edge_weights_array(
                pairs, agreed_r_mask(pairs, self.pair_types)
            )
            a, b = pairs.a.tolist(), pairs.b.tolist()
            weights = dict(zip(zip(a, b), w_ab.tolist()))
            weights.update(zip(zip(b, a), w_ba.tolist()))
        self.quartets: dict[tuple[int, int], QuartetSubgraph] = {}
        for corner in grid.interior_corners():
            cells = grid.quartet_cells(*corner)
            self.quartets[corner] = QuartetSubgraph(
                corner, grid.corner_coords(*corner), cells, self.pair_types, weights
            )

    def pair_type(self, cell_a: int, cell_b: int) -> Side:
        """The agreement type between two adjacent cells."""
        return self.pair_types[frozenset((cell_a, cell_b))]

    def quartet(self, corner: tuple[int, int]) -> QuartetSubgraph:
        """The subgraph of the quartet at an interior corner."""
        return self.quartets[corner]

    def num_marked_edges(self) -> int:
        """Total marked edges across all quartets."""
        return sum(len(q.marked_edges()) for q in self.quartets.values())

    def agreement_counts(self) -> dict[Side, int]:
        """How many adjacent pairs agreed on each input."""
        counts = {Side.R: 0, Side.S: 0}
        for side in self.pair_types.values():
            counts[side] += 1
        return counts
