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

from typing import NamedTuple

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
from repro.geometry.distance import euclidean_sq
from repro.geometry.point import Side
from repro.grid.areas import AreaKind, classify_point
from repro.grid.grid import Grid


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
        if euclidean_sq(x, y, *sub.ref) <= eps * eps:
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
    if euclidean_sq(x, y, *sub.ref) > 4.0 * eps * eps:
        return assigned

    side_cells = sub.side_neighbors(native)
    cl = sub.diagonal(native)
    for cj in side_cells:
        if _mindist_sq(grid, *grid.cell_pos(cj), x, y) > eps * eps:
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

# A quartet position is also the corner of the native cell at which the
# quartet sits: the ``bl`` cell meets it at its NE corner, ``br`` at NW,
# ``tl`` at SE, ``tr`` at SW -- the CORNERS order of ``repro.grid.grid``,
# so bit 0 of a corner index is "west" and bit 1 "south".
#: Per position: its x-neighbour, its y-neighbour, its diagonal.
_X, _Y, _DIAG = np.array(
    [(*(_POS[p] for p in SIDE_NEIGHBORS[pos]), _POS[DIAGONAL[pos]]) for pos in POSITIONS]
).T
_CORNER = np.arange(4)
#: ``[tail, head]`` -> the edge column of ``tail -> head`` (position indexes).
_EDGE_AT = np.zeros((4, 4), dtype=np.intp)
_EDGE_AT[tuple(zip(*_EDGE))] = list(_EDGE.values())
#: Per position: the direction bits of those three cells, seen from the native cell.
_TO_X, _TO_Y, _TO_DIAG = np.array(
    [(_BIT[0, sx], _BIT[sy, 0], _BIT[sy, sx]) for sy, sx in ((1, 1), (1, -1), (-1, 1), (-1, -1))],
    dtype=np.uint32,
).T
#: Per border E, W, N, S: the direction bit of the cell across it.
_ACROSS = np.array([_BIT[0, 1], _BIT[0, -1], _BIT[1, 0], _BIT[-1, 0]], dtype=np.uint8)

#: A cell's rules for one input are five 4-byte words of target sets.  The
#: first four hold, per corner of the cell (the quartet there): MeDuPAr's
#: targets for a point within ``eps`` of the reference point, MeDuPAr's
#: for one beyond it, and SupAr's for the x- and for the y-neighbour's
#: withheld points.  The plain word holds, per border E, W, N, S, the cell
#: across it if the pair's agreement type is the input.
_NEAR, _FAR, _PLAIN, _SUP_X, _SUP_Y = range(5)
#: Per position bl br tl tr: the block of the ``(ny, nx)`` grid of cells
#: that hold that position in some quartet.
_QUARTET_BLOCKS = tuple(
    (slice(sy, None) if sy else slice(None, -1), slice(sx, None) if sx else slice(None, -1))
    for sy in (0, 1) for sx in (0, 1)
)


def _compile_rules(graph: AgreementGraph) -> dict[Side, np.ndarray]:
    """Algorithms 2-4 as a ``(5, num_cells)`` table of rule words per input.

    After Algorithm 1 has run, every edge-type/mark condition of MeDuPAr,
    SupAr and the plain areas is static; only the point's distances remain
    to be checked at assignment time, and they select bytes of the words:
    byte ``c`` of a word is corner ``c`` (NE NW SE SW) or border ``c`` (E W
    N S).  A corner without a quartet (on the grid's boundary) has empty
    bytes.
    """
    grid = graph.grid
    # the types of every cell's E pair and of its N pair, as grids
    facing = grid.adjacent_pair_arrays().facing_a
    east_r = graph.agreed_r[facing == 0].reshape(grid.ny, grid.nx - 1)
    north_r = graph.agreed_r[facing == 2].reshape(grid.ny - 1, grid.nx)
    # edge-major: one row of quartets per edge column
    is_r, marked = graph.is_r.T.copy(), graph.marked.T.copy()
    to_x_bit, to_y_bit, to_diag_bit = _TO_X[:, None], _TO_Y[:, None], _TO_DIAG[:, None]

    rules = {}
    for side in Side:
        same = is_r == (side is Side.R)
        sends = same & ~marked  # carries this input's duplicate-prone points
        withheld = same & marked
        other_sends = ~(same | marked)
        other_withheld = ~same & marked
        # (corner, quartet) arrays: per position, the edge tail -> head
        to_x, to_y, to_diag = (sends[_EDGE_AT[_CORNER, head]] for head in (_X, _Y, _DIAG))
        redirect = withheld[_EDGE_AT[_CORNER, _X]] | withheld[_EDGE_AT[_CORNER, _Y]]
        to_sides = to_x * to_x_bit | to_y * to_y_bit
        words = np.zeros((5, 4, len(graph.cells)), dtype=np.uint8)  # (word, corner, quartet)
        words[_NEAR] = to_sides | to_diag * to_diag_bit
        words[_FAR] = to_sides | (to_diag & redirect) * to_diag_bit
        for j, k, to_k, word in ((_X, _Y, to_y_bit, _SUP_X), (_Y, _X, to_x_bit, _SUP_Y)):
            # SupAr: j withholds the other input's points from the native
            # cell; meet them in k, else in the diagonal cell
            active = other_withheld[_EDGE_AT[j, _CORNER]]
            via_k = active & sends[_EDGE_AT[_CORNER, k]] & other_sends[_EDGE_AT[j, k]]
            via_diag = active & to_diag & other_sends[_EDGE_AT[j, _DIAG]] & ~via_k
            words[word] = via_k * to_k | via_diag * to_diag_bit
        table = np.zeros((5, grid.ny, grid.nx, 4), dtype=np.uint8)
        # quartets are row-major over the interior corners, so the cells at
        # a given position are a block of the grid
        for corner, (rows, columns) in enumerate(_QUARTET_BLOCKS):
            table[:, rows, columns, corner] = words[:, corner].reshape(5, grid.ny - 1, grid.nx - 1)
        plain = table[_PLAIN]
        east, north = east_r == (side is Side.R), north_r == (side is Side.R)
        plain[:, :-1, 0], plain[:, 1:, 1] = east * _ACROSS[0], east * _ACROSS[1]
        plain[:-1, :, 2], plain[1:, :, 3] = north * _ACROSS[2], north * _ACROSS[3]
        rules[side] = table.reshape(5, grid.num_cells, 4).view("<u4")[..., 0]
    return rules


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


class _Edges(NamedTuple):
    """Per cell index along one axis: coordinates computed from the index
    as the scalar code computes them."""

    #: The cell's low and high edge.
    low: np.ndarray
    high: np.ndarray
    #: The next cell's low edge and the previous cell's high edge.
    next_low: np.ndarray
    prev_high: np.ndarray
    #: ``high`` and ``low`` where a cell lies across that edge, else
    #: infinitely far: a point is never near a border of the grid.
    high_across: np.ndarray
    low_across: np.ndarray
    #: ``next_low`` then ``low``: index ``c`` for the reference coordinate
    #: of the cell's corners at its high edge, ``n + c`` at its low edge.
    corner: np.ndarray


def _edges(lo: float, size: float, n: int) -> _Edges:
    c = np.arange(n)
    low = lo + c * size
    high = low + size
    next_low = lo + (c + 1) * size
    high_across, low_across = high.copy(), low.copy()
    high_across[-1], low_across[0] = np.inf, -np.inf
    return _Edges(
        low, high, next_low, (lo + (c - 1) * size) + size, high_across, low_across,
        np.concatenate([next_low, low]),
    )


class AdaptiveAssigner:
    """Algorithm 2: point replication driven by the graph of agreements."""

    def __init__(self, grid: Grid, graph: AgreementGraph):
        if graph.grid is not grid and graph.grid != grid:
            raise ValueError("agreement graph was built for a different grid")
        self.grid = grid
        self.graph = graph
        self._words = _compile_rules(graph)
        #: Per input and cell: whether any rule of the cell can emit a
        #: replica.  Only points in such *armed* cells consult the rules.
        self.armed_cells = {side: words.any(axis=0) for side, words in self._words.items()}
        # ... and the corners (bit c: corner c) whose quartet holds a SupAr rule
        self._supar_corners = {
            side: np.bitwise_or.reduce(
                ((words[_SUP_X] | words[_SUP_Y]).view(np.uint8).reshape(-1, 4) != 0) << _CORNER,
                axis=1,
            ).astype(np.uint8)
            for side, words in self._words.items()
        }
        self._x_edges = _edges(grid.mbr.xmin, grid.cell_w, grid.nx)
        self._y_edges = _edges(grid.mbr.ymin, grid.cell_h, grid.ny)
        # per bit of a point's record row: the offset of that record's cell
        # from the native one (bit 0 the native cell, 1 + k direction k)
        self._offsets = np.zeros(16, dtype=np.int64)
        self._offsets[1:9] = [dy * grid.nx + dx for dy, dx in _DIRECTIONS]

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
        the border points of armed cells -- the point's distances decide
        which bytes of its cell's rule words it may use, and its targets
        are the union of those bytes.  The comparisons are the scalar ones,
        term for term.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        grid = self.grid
        eps = grid.eps
        cx, cy = grid.cell_indices(xs, ys)
        native = cy * grid.nx + cx
        x_edges, y_edges = self._x_edges, self._y_edges
        # near a border with a cell across it, as classify_point decides
        east = x_edges.high_across[cx] - xs <= eps
        west = xs - x_edges.low_across[cx] <= eps
        north = y_edges.high_across[cy] - ys <= eps
        south = ys - y_edges.low_across[cy] <= eps
        inner = ~(east | west | north | south)
        # The points that read the rules: the border points of armed cells,
        # or every point where most points are native to an armed cell --
        # an inner point admits no byte and an unarmed cell holds none.
        armed = self.armed_cells[side][native]
        if 2 * np.count_nonzero(armed) > len(xs):
            pts = slice(None)
        else:
            pts = np.flatnonzero(armed & ~inner)
        x, y, cx, cy, cells, east, west, north, south = (
            a[pts] for a in (xs, ys, cx, cy, native, east, west, north, south)
        )
        # east/north win over west/south when a cell is narrower than 2 eps
        # (classify_point's ``elif``)
        west, south = west & ~east, south & ~north
        near_x, near_y = east | west, north | south
        words = np.take(self._words[side][:_SUP_X], cells, axis=1)
        u8 = np.uint8

        # Own zone.  Near two borders (merged duplicate-prone area): MeDuPAr
        # on the quartet at that corner of the cell, whose targets beyond
        # eps of its reference point are a subset of those within.  Near
        # one (plain replication area): the neighbour across it, if the
        # pair's type is this input.  The distance is squared and compared
        # with eps * eps, as the join kernels and the scalar medupar do.
        dx = x - x_edges.corner[cx + grid.nx * west]
        dy = y - y_edges.corner[cy + grid.ny * south]
        near_ref = dx * dx + dy * dy <= eps * eps
        own = (near_x & near_y) * np.uint32(0xFF) << 8 * (west.view(u8) + 2 * south.view(u8))
        plain = (near_x ^ near_y) * np.uint32(0xFF) << 8 * (
            west.view(u8) + 2 * north.view(u8) + 3 * south.view(u8)
        )
        bits = words[_FAR] & own | words[_NEAR] & own * near_ref | words[_PLAIN] & plain

        # SupAr: a point consults the quartet at each corner of its cell
        # that ends a border it is near, within 2 eps of the reference
        # point, for each side neighbour within eps whose points of the
        # other input are withheld -- worked out for the points that
        # consult a corner holding such a rule.
        consulted = 5 * east.view(u8) | 10 * west.view(u8) | 3 * north.view(u8) | 12 * south.view(u8)
        sup = np.flatnonzero(self._supar_corners[side][cells] & consulted)
        x, y, cx, cy, cells, east, west, north, south = (
            a[sup] for a in (x, y, cx, cy, cells, east, west, north, south)
        )
        # x and y distances to the cell's borders (W E S N) and to the next
        # cell's low edges (the E and N corners' reference coordinates)
        to_w, to_e, to_next_x = x - x_edges.low[cx], x_edges.high[cx] - x, x - x_edges.next_low[cx]
        to_s, to_n, to_next_y = y - y_edges.low[cy], y_edges.high[cy] - y, y - y_edges.next_low[cy]
        to_ref = np.empty((4, len(sup)))  # squared, to the corners NE NW SE SW
        for corner, (ref_x, ref_y) in enumerate(
            ((to_next_x, to_next_y), (to_w, to_next_y), (to_next_x, to_s), (to_w, to_s))
        ):
            np.add(ref_x * ref_x, ref_y * ref_y, out=to_ref[corner])
        consult = np.array([east | north, west | north, east | south, west | south])
        consult &= to_ref <= 4.0 * eps * eps
        # Squared MINDIST to the cells across E, W, N and S, as _mindist_sq
        # takes it: the gap to the neighbour along one axis plus the gap to
        # the point's own cell along the other (zero unless the point lies
        # outside the grid).  The far-edge term of the first gap is left
        # out: it is negative wherever that neighbour exists.
        gaps = np.empty((4, len(sup)))
        np.minimum(to_next_x, 0.0, out=gaps[0])
        np.maximum(x - x_edges.prev_high[cx], 0.0, out=gaps[1])
        np.minimum(to_next_y, 0.0, out=gaps[2])
        np.maximum(y - y_edges.prev_high[cy], 0.0, out=gaps[3])
        np.square(gaps, out=gaps)
        gaps[:2] += np.square(np.minimum(np.minimum(to_s, 0.0), to_n))
        gaps[2:] += np.square(np.minimum(np.minimum(to_w, 0.0), to_e))
        close = gaps <= eps * eps
        # per point and corner, one byte each: whether the SupAr targets for
        # the x-neighbour's (y-neighbour's) withheld points apply
        uses_x, uses_y = (
            np.ascontiguousarray((consult & close[across]).T).view("<u4")[:, 0] * np.uint32(0xFF)
            for across in ([0, 1, 0, 1], [2, 2, 3, 3])
        )
        supar_x, supar_y = np.take(self._words[side][_SUP_X:], cells, axis=1)
        bits[sup] |= supar_x & uses_x | supar_y & uses_y
        bits |= bits >> 16
        bits |= bits >> 8
        targets = np.zeros(len(xs), dtype="<u2")
        targets[pts] = bits & 0xFF

        # one record per native cell and per target bit: bit 0 of a point's
        # 16-bit row stands for its native cell and bit 1 + k for direction
        # k, so the set bits, read row by row, are its records in order
        border = np.flatnonzero(~inner)
        rows = (targets[border] << 1 | 1).view(np.uint8)
        record = np.flatnonzero(np.unpackbits(rows, bitorder="little").view(np.bool_))
        first = len(xs) - len(border)
        cell_ids = np.empty(first + len(record), dtype=np.int64)
        point_idx = np.empty_like(cell_ids)
        cell_ids[:first], point_idx[:first] = native[inner], np.flatnonzero(inner)
        cells, points = cell_ids[first:], point_idx[first:]
        np.take(self._offsets, np.bitwise_and(record, 15, out=points), out=cells)
        np.take(border, np.right_shift(record, 4, out=record), out=points)
        cells += np.take(native, points)
        return cell_ids, point_idx
