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

All of it lives in arrays on :class:`AgreementGraph`;
:class:`QuartetSubgraph` and :class:`DirectedEdge` are views onto one row /
one element of them.
"""

from __future__ import annotations

from collections.abc import Mapping

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

#: Index of each position in :data:`POSITIONS` (a column of ``cells``).
POSITION_INDEX = {pos: i for i, pos in enumerate(POSITIONS)}

#: Column of the directed edge ``tail -> head`` (position indexes) in the
#: ``(quartets, 12)`` arrays.
EDGE_COLUMN = {
    (POSITION_INDEX[tail], POSITION_INDEX[head]): col
    for col, (tail, head) in enumerate(EDGE_POSITIONS)
}

#: The four triangles (triples of positions) of a quartet subgraph.
TRIANGLES = (
    ("bl", "br", "tl"),
    ("bl", "br", "tr"),
    ("bl", "tl", "tr"),
    ("br", "tl", "tr"),
)


def _store_field(name: str, cast, doc: str) -> property:
    """A :class:`DirectedEdge` attribute living in the graph's ``name`` array."""

    def read(edge):
        return cast(getattr(edge._graph, name)[edge._row, edge._col])

    def write(edge, value) -> None:
        getattr(edge._graph, name)[edge._row, edge._col] = value

    return property(read, write, doc=doc)


class DirectedEdge:
    """One directed edge of a quartet subgraph: a view onto one element of
    the graph's arrays, so writes are seen by every other view.

    ``tail -> head`` of type ``side`` means: points of input ``side`` are
    replicated from cell ``tail`` to cell ``head``.  ``marked`` excludes the
    duplicate-prone-area points of ``tail`` from that replication
    (Sect. 4.5.1); ``locked`` only forbids future marking (Sect. 4.5.3).
    """

    __slots__ = ("_graph", "_row", "_col", "tail", "head")

    def __init__(self, graph: "AgreementGraph", row: int, col: int, tail: int, head: int):
        self._graph, self._row, self._col = graph, row, col
        self.tail, self.head = tail, head

    @property
    def side(self) -> Side:
        return Side.R if self._graph.is_r[self._row, self._col] else Side.S

    weight = _store_field("weight", float, "Edge weight (Sect. 4.3).")
    marked = _store_field("marked", bool, "Whether Algorithm 1 marked the edge.")
    locked = _store_field("locked", bool, "Whether the edge may no longer be marked.")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("M" if self.marked else "") + ("L" if self.locked else "")
        return f"e({self.tail}->{self.head},{self.side}{',' + flags if flags else ''})"


class QuartetSubgraph:
    """The fully-connected four-vertex subgraph of one quartet: a view onto
    row ``row`` of an :class:`AgreementGraph`'s arrays."""

    def __init__(self, graph: "AgreementGraph", row: int):
        self._graph, self._row = graph, row
        columns = graph.grid.nx - 1
        self.corner = (row % columns + 1, row // columns + 1)
        self.ref = graph.grid.corner_coords(*self.corner)
        self.cells = graph.grid.quartet_cells(*self.corner)  # == graph.cells[row]
        self.pos_of = {cid: pos for pos, cid in self.cells.items()}

    # ------------------------------------------------------------------
    def edge(self, tail: int, head: int) -> DirectedEdge:
        """The directed edge between two cells of this quartet."""
        col = EDGE_COLUMN[POSITION_INDEX[self.pos_of[tail]], POSITION_INDEX[self.pos_of[head]]]
        return DirectedEdge(self._graph, self._row, col, tail, head)

    def edges(self) -> list[DirectedEdge]:
        """All 12 directed edges, in :data:`EDGE_POSITIONS` order."""
        return [self.edge(self.cells[t], self.cells[h]) for t, h in EDGE_POSITIONS]

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
        return [e for e in self.edges() if e.marked]


class PairTypes(Mapping):
    """The agreement type of every adjacent cell pair: ``frozenset((a, b))
    -> Side`` in ``Grid.adjacent_pairs()`` order, backed by one bool array
    (true where R is replicated) aligned with ``Grid.adjacent_pair_arrays()``."""

    def __init__(self, grid: Grid, agreed_r: np.ndarray):
        self.grid = grid
        self.agreed_r = agreed_r

    def __getitem__(self, pair: frozenset) -> Side:
        try:
            index = self.grid.adjacent_pair_index(*pair)
        except (TypeError, ValueError):
            raise KeyError(pair) from None
        return Side.R if self.agreed_r[index] else Side.S

    def __iter__(self):
        pairs = self.grid.adjacent_pair_arrays()
        return map(frozenset, zip(pairs.a.tolist(), pairs.b.tolist()))

    def __len__(self) -> int:
        return len(self.agreed_r)


def agreed_r_mask(pairs: AdjacentPairs, pair_types: Mapping[frozenset, Side]) -> np.ndarray:
    """``pair_types`` as an array over ``pairs``: true where R is replicated."""
    if isinstance(pair_types, PairTypes):
        return pair_types.agreed_r
    return np.fromiter(
        (
            pair_types[frozenset(pair)] is Side.R
            for pair in zip(pairs.a.tolist(), pairs.b.tolist())
        ),
        dtype=bool,
        count=len(pairs),
    )


class _Quartets(Mapping):
    """What :attr:`AgreementGraph.quartets` returns."""

    def __init__(self, graph: "AgreementGraph"):
        self._graph = graph

    def __getitem__(self, corner: tuple[int, int]) -> QuartetSubgraph:
        grid = self._graph.grid
        qx, qy = corner
        if not grid.is_interior_corner(qx, qy):
            raise KeyError(corner)
        return QuartetSubgraph(self._graph, (qy - 1) * (grid.nx - 1) + qx - 1)

    def __iter__(self):
        return self._graph.grid.interior_corners()

    def __len__(self) -> int:
        return len(self._graph.cells)


# The unordered pair behind each of PAIR_POSITIONS, as its lower cell's
# position and the FACINGS column through which that cell faces the other
# (bl-br E, bl-tl N, bl-tr NE, br-tl NW, br-tr N, tl-tr E).
_PAIR_TAIL = np.array([POSITION_INDEX[a] for a, _ in PAIR_POSITIONS])
_PAIR_FACING = np.array([0, 2, 4, 5, 2, 0])


class AgreementGraph:
    """The full graph of agreements over a grid, as one array store.

    One row per quartet in ``Grid.interior_corners()`` order: ``cells`` is
    ``(quartets, 4)`` in :data:`POSITIONS` order; ``is_r`` (agreement type
    is R), ``weight``, ``marked`` and ``locked`` are ``(quartets, 12)`` in
    :data:`EDGE_POSITIONS` order.  ``agreed_r`` is the type of every
    adjacent pair, aligned with ``Grid.adjacent_pair_arrays()``.
    ``pair_types`` and ``quartets`` are mappings over these arrays, which
    Algorithm 1 and the assigner's table compile read directly.
    """

    def __init__(
        self,
        grid: Grid,
        pair_types: Mapping[frozenset, Side],
        stats: GridStatistics | None = None,
    ):
        self.grid = grid
        self.stats = stats
        pairs = grid.adjacent_pair_arrays()
        self.agreed_r = agreed_r_mask(pairs, pair_types)
        self.pair_types = PairTypes(grid, self.agreed_r)
        nx = grid.nx
        bl = (np.arange(grid.ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
        self.cells = bl[:, None] + np.array([0, 1, nx, nx + 1])
        slot = np.empty(grid.num_cells * 8, dtype=np.int64)
        slot[pairs.slots[0]] = np.arange(len(pairs))
        pair = slot[self.cells[:, _PAIR_TAIL] * 8 + _PAIR_FACING]
        self.is_r = np.repeat(self.agreed_r[pair], 2, axis=1)
        self.weight = np.zeros(self.is_r.shape)
        if stats is not None:
            # every directed edge weight (Sect. 4.3): even columns run from
            # the pair's lower cell, odd columns back
            w_ab, w_ba = stats.edge_weights_array(pairs, self.agreed_r)
            self.weight[:, 0::2] = w_ab[pair]
            self.weight[:, 1::2] = w_ba[pair]
        self.marked = np.zeros(self.is_r.shape, dtype=bool)
        self.locked = np.zeros(self.is_r.shape, dtype=bool)

    @property
    def quartets(self) -> Mapping[tuple[int, int], QuartetSubgraph]:
        """Interior corner -> quartet view, in ``interior_corners()`` order
        (made per access: a stored one would tie the graph into a cycle and
        keep an evicted graph's arrays alive until the collector runs)."""
        return _Quartets(self)

    def pair_type(self, cell_a: int, cell_b: int) -> Side:
        """The agreement type between two adjacent cells."""
        return self.pair_types[frozenset((cell_a, cell_b))]

    def agreement_counts(self) -> dict[Side, int]:
        """How many adjacent pairs agreed on each input."""
        agreed_r = int(np.count_nonzero(self.agreed_r))
        return {Side.R: agreed_r, Side.S: len(self.agreed_r) - agreed_r}
