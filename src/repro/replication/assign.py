"""Adaptive point replication to cells (Algorithms 2, 3 and 4).

Given a duplicate-free graph of agreements, :class:`AdaptiveAssigner` maps
every point to the set of cells that must see it:

* its native cell, always;
* for points in a **plain replication area**, the neighbouring cell across
  the near border -- only when the agreement type of that pair matches the
  point's input (Algorithm 2, lines 12-15);
* for points in a **merged duplicate-prone area**, the cells selected by
  *MeDuPAr* (Algorithm 3): the two side-adjacent quartet cells whose edge
  matches the point's input and is unmarked, plus the diagonal cell either
  when the point is within ``eps`` of the reference point (natural
  replication) or as a redirect when a matching side edge is marked;
* the cells selected by *SupAr* (Algorithm 4) for the point's nearby
  quartets: when a neighbouring cell's edge towards the point's cell is
  marked (its duplicate-prone points are withheld), points of the opposite
  input within the *supplementary area* are force-replicated to the quartet
  cell where the withheld points now meet them.
"""

from __future__ import annotations

from typing import Iterable, Protocol

import numpy as np

from repro.agreements.graph import (
    DIAGONAL,
    EDGE_COLUMN as _EDGE,
    POSITION_INDEX as _POS,
    POSITIONS,
    SIDE_NEIGHBORS,
    AgreementGraph,
    QuartetSubgraph,
)
from repro.geometry.distance import euclidean
from repro.geometry.point import Side
from repro.grid.areas import AreaKind, classify_point
from repro.grid.grid import Grid


class Assigner(Protocol):
    """Maps a point to the ids of all cells it is assigned to."""

    grid: Grid

    def assign(self, x: float, y: float, side: Side) -> tuple[int, ...]:
        """Native cell first, then replication targets (deduplicated)."""
        ...


def medupar(
    sub: QuartetSubgraph, x: float, y: float, side: Side, native: int, eps: float
) -> set[int]:
    """Algorithm 3: assignment of a merged-duplicate-prone-area point.

    ``native`` must be one of the quartet's cells and the point must lie in
    the ``eps x eps`` square of ``native`` at the quartet's reference point.
    """
    assigned: set[int] = set()
    side_cells = sub.side_neighbors(native)
    for cj in side_cells:
        e_ij = sub.edge(native, cj)
        if e_ij.side == side and not e_ij.marked:
            assigned.add(cj)

    cl = sub.diagonal(native)
    e_il = sub.edge(native, cl)
    if e_il.side == side and not e_il.marked:
        if euclidean(x, y, *sub.ref) <= eps:
            assigned.add(cl)
        else:
            # Redirect: a marked same-type side edge withholds this point
            # from a side cell; it must meet its partners in the diagonal
            # cell instead (Algorithm 3, lines 8-11).
            for cj in side_cells:
                e_ij = sub.edge(native, cj)
                if e_ij.side == side and e_ij.marked:
                    assigned.add(cl)
                    break
    return assigned


def supar(
    sub: QuartetSubgraph,
    x: float,
    y: float,
    side: Side,
    native: int,
    grid: Grid,
) -> set[int]:
    """Algorithm 4: supplementary-area assignment within one quartet.

    Checks, for each quartet cell ``cj`` side-adjacent to the point's
    native cell, whether the edge ``cj -> native`` is marked with the
    opposite type -- meaning ``cj``'s duplicate-prone points of the other
    input are withheld from the native cell.  If the point lies within the
    supplementary area (within ``2 * eps`` of the reference point and
    within ``eps`` of ``cj``), it is force-replicated to the quartet cell
    where those withheld points are still replicated.
    """
    assigned: set[int] = set()
    if native not in sub.pos_of:
        return assigned
    eps = grid.eps
    if euclidean(x, y, *sub.ref) > 2.0 * eps:
        return assigned

    side_cells = sub.side_neighbors(native)
    cl = sub.diagonal(native)
    for cj in side_cells:
        cj_mbr = grid.cell_mbr(*grid.cell_pos(cj))
        if cj_mbr.mindist_point(x, y) > eps:
            continue
        e_ji = sub.edge(cj, native)
        if e_ji.side == side or not e_ji.marked:
            continue
        ck = side_cells[1] if cj == side_cells[0] else side_cells[0]
        e_ik, e_jk = sub.edge(native, ck), sub.edge(cj, ck)
        e_il, e_jl = sub.edge(native, cl), sub.edge(cj, cl)
        if (
            e_ik.side == side
            and not e_ik.marked
            and e_jk.side != side
            and not e_jk.marked
        ):
            assigned.add(ck)
        elif (
            e_il.side == side
            and not e_il.marked
            and e_jl.side != side
            and not e_jl.marked
        ):
            assigned.add(cl)
    return assigned


# Every target of Algorithms 2-4 is one of the native cell's 8 neighbours,
# so a set of targets is one byte: bit ``k`` is the ``k``-th neighbour in
# ascending ``(dy, dx)`` -- ascending cell id, the emission order.  A set
# cannot hold the native cell or a cell twice, and is read out in order.
_DIRECTIONS = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx)
_BIT = {step: np.uint32(1 << k) for k, step in enumerate(_DIRECTIONS)}
_POPCOUNT = np.array([bin(mask).count("1") for mask in range(256)], dtype=np.int64)

# A quartet position is also the corner of the native cell at which the
# quartet sits: the ``bl`` cell meets it at its NE corner, ``br`` at NW,
# ``tl`` at SE, ``tr`` at SW -- the CORNERS order of ``repro.grid.grid``.
#: Per position: its x-neighbour, its y-neighbour, its diagonal.
_NEIGHBOURS = tuple(
    (*(_POS[p] for p in SIDE_NEIGHBORS[pos]), _POS[DIAGONAL[pos]]) for pos in POSITIONS
)
#: Per position: the direction bits of those three cells, seen from the native cell.
_TOWARDS = tuple(
    (_BIT[0, sx], _BIT[sy, 0], _BIT[sy, sx])
    for sy, sx in ((1, 1), (1, -1), (-1, 1), (-1, -1))
)

#: Bit offsets of the four target sets in a compiled quartet table word.
_NEAR, _FAR, _SUP_X, _SUP_Y = 0, 8, 16, 24


def _compile_quartet_tables(graph: AgreementGraph) -> dict[Side, np.ndarray]:
    """Algorithms 3 and 4 as one ``num_cells * 4`` table of words per input.

    After Algorithm 1 has run, every edge-type/mark condition of MeDuPAr
    and SupAr is static; only the point's distances remain to be checked
    at assignment time.  Word ``native * 4 + corner`` holds, for a point of
    that input in ``native`` consulting the quartet at that corner of its
    cell, four sets of direction bits: its MeDuPAr targets if it is within
    ``eps`` of the reference point and if it is not (the diagonal cell only
    as a redirect), and the SupAr destination for the x- and for the
    y-neighbour's withheld points -- empty when the conditions rule it out.
    """
    # edge-major copies: one contiguous row per edge column
    cells, is_r, marked = graph.cells, graph.is_r.T.copy(), graph.marked.T.copy()
    tables = {}
    for side in Side:
        same = is_r == (side is Side.R)
        sends = same & ~marked  # carries this input's duplicate-prone points
        withheld = same & marked
        other_withheld = ~same & marked
        other_sends = ~same & ~marked
        table = np.zeros(graph.grid.num_cells * 4, dtype=np.uint32)
        for i, (xn, yn, diag) in enumerate(_NEIGHBOURS):
            bit_x, bit_y, bit_diag = _TOWARDS[i]
            to_diag = sends[_EDGE[i, diag]]
            redirect = withheld[_EDGE[i, xn]] | withheld[_EDGE[i, yn]]
            to_sides = sends[_EDGE[i, xn]] * bit_x | sends[_EDGE[i, yn]] * bit_y
            word = (to_sides | to_diag * bit_diag) << _NEAR
            word |= (to_sides | (to_diag & redirect) * bit_diag) << _FAR
            for j, k, bit_k, shift in ((xn, yn, bit_y, _SUP_X), (yn, xn, bit_x, _SUP_Y)):
                # SupAr: j withholds the other input's points from the native
                # cell; meet them in k, else in the diagonal cell
                active = other_withheld[_EDGE[j, i]]
                via_k = active & sends[_EDGE[i, k]] & other_sends[_EDGE[j, k]]
                via_diag = active & to_diag & other_sends[_EDGE[j, diag]]
                word |= np.where(via_k, bit_k, via_diag * bit_diag) << shift
            table[cells[:, i] * 4 + i] = word
        tables[side] = table
    return tables


def _compile_plain_tables(graph: AgreementGraph) -> dict[Side, np.ndarray]:
    """Algorithm 2, lines 12-15: ``native * 4 + border`` -> the direction bit
    of the neighbour across that border when the pair's agreement type is
    the table's input."""
    pairs = graph.grid.adjacent_pair_arrays()
    across = np.array([_BIT[0, 1], _BIT[0, -1], _BIT[1, 0], _BIT[-1, 0]], dtype=np.uint8)  # E W N S
    tables = {}
    for side in Side:
        sel = (pairs.facing_a < 4) & (graph.agreed_r == (side is Side.R))
        facing_a, facing_b = pairs.facing_a[sel], pairs.facing_b[sel]
        table = np.zeros(graph.grid.num_cells * 4, dtype=np.uint8)
        table[pairs.a[sel] * 4 + facing_a] = across[facing_a]
        table[pairs.b[sel] * 4 + facing_b] = across[facing_b]
        tables[side] = table
    return tables


def _mindist_sq(
    grid: Grid, cx: np.ndarray, cy: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Squared MINDIST from each point to cell ``(cx, cy)``: ``grid.cell_mbr``
    and ``MBR.mindist_point`` term for term, without the root."""
    x0 = grid.mbr.xmin + cx * grid.cell_w
    y0 = grid.mbr.ymin + cy * grid.cell_h
    dx = np.maximum(np.maximum(x0 - x, 0.0), x - (x0 + grid.cell_w))
    dy = np.maximum(np.maximum(y0 - y, 0.0), y - (y0 + grid.cell_h))
    return dx * dx + dy * dy


def _root_le(sq: np.ndarray, eps: float) -> np.ndarray:
    """``sq ** 0.5 <= eps`` exactly as the scalar ``MBR.mindist_point`` decides it.

    Python's ``** 0.5`` is libm ``pow``, which is not correctly rounded: it
    is one ulp off ``np.sqrt`` on about one input in a thousand.  Entries
    that close to ``eps`` are re-decided with the scalar expression.
    """
    root = np.sqrt(sq)
    le = root <= eps
    for i in np.nonzero(np.abs(root - eps) <= 2.0 * np.spacing(eps))[0].tolist():
        le[i] = float(sq[i]) ** 0.5 <= eps
    return le


class AdaptiveAssigner:
    """Algorithm 2: point replication driven by the graph of agreements."""

    def __init__(self, grid: Grid, graph: AgreementGraph):
        if graph.grid is not grid and graph.grid != grid:
            raise ValueError("agreement graph was built for a different grid")
        self.grid = grid
        self.graph = graph
        self._quartet_tables = _compile_quartet_tables(graph)
        self._plain_tables = _compile_plain_tables(graph)
        #: Per input and cell: whether any table entry of the cell can emit
        #: a replica.  Only points in such *armed* cells consult the tables.
        self.armed_cells = {}
        for side in Side:
            quartet = self._quartet_tables[side].reshape(-1, 4).T
            plain = self._plain_tables[side].reshape(-1, 4).T
            self.armed_cells[side] = (
                quartet[0] | quartet[1] | quartet[2] | quartet[3]
                | plain[0] | plain[1] | plain[2] | plain[3]
            ) != 0

    def assign(self, x: float, y: float, side: Side) -> tuple[int, ...]:
        """All cells the point is assigned to; the native cell comes first."""
        grid = self.grid
        info = classify_point(grid, x, y)
        native = grid.cell_id(info.cx, info.cy)
        if info.kind is AreaKind.NO_REPLICATION:
            return (native,)

        extra: set[int] = set()
        supplementary_corners = info.supplementary_corners
        if info.kind is AreaKind.MERGED_DUPLICATE_PRONE:
            sub = self.graph.quartets.get(info.corner)
            if sub is not None:
                extra |= medupar(sub, x, y, side, native, grid.eps)
            # A square-zone point may additionally lie in a supplementary
            # area of its *own* quartet: the triad's duplicate-prone area
            # (the quarter disc) is smaller than the merged square, so a
            # point beyond eps of the reference point can still need
            # force-replication when a neighbour's edge towards it is
            # marked.  Algorithm 2 in the paper omits this sub-case; the
            # exhaustive quartet tests show it is required for correctness.
            supplementary_corners = (info.corner, *supplementary_corners)
        else:  # plain replication area
            cj = grid.cell_id(info.cx + info.near_x, info.cy + info.near_y)
            if self.graph.pair_type(native, cj) == side:
                extra.add(cj)

        for corner in supplementary_corners:
            sub = self.graph.quartets.get(corner)
            if sub is not None:
                extra |= supar(sub, x, y, side, native, grid)

        extra.discard(native)
        return (native, *sorted(extra))

    def assign_batch(
        self, xs: np.ndarray, ys: np.ndarray, side: Side
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assign many points at once.

        Returns parallel arrays ``(cell_ids, point_indices)``: one entry per
        (cell, point) assignment, equal to :meth:`assign` point by point.
        Emission order is a contract (the shuffle's stable sort keeps it
        within each cell): first every no-replication-area point in input
        order, then the border-area points in input order, each as its
        native cell followed by its other cells ascending, de-duplicated.

        One vectorized pass: zone flags from array comparisons, then -- for
        the border points of armed cells only -- the target bits their
        distances admit, OR-ed from the tables compiled at construction.
        The comparisons are the scalar ones, term for term.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        grid = self.grid
        nx, eps = grid.nx, grid.eps
        xmin, ymin, cell_w, cell_h = grid.mbr.xmin, grid.mbr.ymin, grid.cell_w, grid.cell_h
        # int() and astype both truncate towards zero; points outside the
        # MBR are clipped into the edge cells
        cx = np.clip(((xs - xmin) / cell_w).astype(np.int64), 0, nx - 1)
        cy = np.clip(((ys - ymin) / cell_h).astype(np.int64), 0, grid.ny - 1)
        native = cy * nx + cx

        x0 = xmin + cx * cell_w
        y0 = ymin + cy * cell_h
        # east/north win over west/south when a cell is narrower than 2 eps
        # (classify_point's ``elif``)
        east = (x0 + cell_w - xs <= eps) & (cx + 1 < nx)
        west = (xs - x0 <= eps) & (cx > 0) & ~east
        north = (y0 + cell_h - ys <= eps) & (cy + 1 < grid.ny)
        south = (ys - y0 <= eps) & (cy > 0) & ~north
        inner = ~(east | west | north | south)
        border = np.nonzero(~inner)[0]
        home = native[border]
        # a border point of an unarmed cell keeps its place in the border
        # group with no target bits; only the armed ones go on
        armed = np.nonzero(self.armed_cells[side][home])[0]
        pts = border[armed]
        x, y, cx, cy, cell = xs[pts], ys[pts], cx[pts], cy[pts], home[armed]
        near = [flags[pts] for flags in (east, west, north, south)]
        near_x, near_y = near[0] | near[1], near[2] | near[3]
        wests, souths = near[1].astype(np.int64), near[3].astype(np.int64)
        quartet_table = self._quartet_tables[side]

        # Own zone.  Near two borders (merged duplicate-prone area): MeDuPAr on
        # the quartet at that corner of the cell.  Near one (plain replication
        # area): the neighbour across it, if the pair's type is this input.
        words = cell * 4
        own = quartet_table[words + wests + 2 * souths]
        dx = x - (xmin + (cx + 1 - wests) * cell_w)
        dy = y - (ymin + (cy + 1 - souths) * cell_h)
        # squared, as the join kernels compare; the scalar medupar/supar root
        # this distance, which differs only within an ulp of the circle,
        # where either answer is correct
        near_ref = dx * dx + dy * dy <= eps * eps
        across = self._plain_tables[side][words + np.where(near_x, wests, 2 + souths)]
        # (the casts keep a word's low byte, one target set)
        bits = np.where(near_x & near_y, np.where(near_ref, own >> _NEAR, own >> _FAR), across)
        bits = bits.astype(np.uint8)

        # SupAr: a point consults the quartet at each corner of its cell that
        # ends a border it is near
        two_eps_sq = 4.0 * eps * eps
        for corner in range(4):
            is_west, is_south = corner & 1, corner >> 1
            rules = quartet_table[words + corner] >> _SUP_X
            sel = np.nonzero((near[is_west] | near[2 + is_south]) & (rules != 0))[0]
            rules = rules[sel]
            px, py, pcx, pcy = x[sel], y[sel], cx[sel], cy[sel]
            dx = px - (xmin + (pcx + 1 - is_west) * cell_w)
            dy = py - (ymin + (pcy + 1 - is_south) * cell_h)
            in_reach = dx * dx + dy * dy <= two_eps_sq
            neighbours = ((pcx + 1 - 2 * is_west, pcy), (pcx, pcy + 1 - 2 * is_south))
            for shift, (ncx, ncy) in zip((0, _SUP_Y - _SUP_X), neighbours):
                close = in_reach & _root_le(_mindist_sq(grid, ncx, ncy, px, py), eps)
                bits[sel] |= np.where(close, rules >> shift, 0).astype(np.uint8)
        targets = np.zeros(len(border), dtype=np.uint8)
        targets[armed] = bits

        # one record per native cell and per target bit: the set bits of the
        # (points, 8) bit matrix, read row by row, are the replicas in order
        counts = _POPCOUNT[targets] + 1
        cells = np.repeat(home, counts)
        replica = np.flatnonzero(np.unpackbits(targets, bitorder="little").view(np.bool_))
        point, direction = replica >> 3, replica & 7
        steps = np.array([dy * nx + dx for dy, dx in _DIRECTIONS])
        cells[np.arange(len(replica)) + point + 1] += steps[direction]
        return (
            np.concatenate([native[inner], cells]),
            np.concatenate([np.nonzero(inner)[0], np.repeat(border, counts)]),
        )


def count_replicas(assignments: Iterable[tuple[int, ...]]) -> int:
    """Total replicated objects over a stream of assignment tuples."""
    return sum(len(a) - 1 for a in assignments)
