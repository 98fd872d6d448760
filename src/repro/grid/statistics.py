"""Per-cell statistics gathered from a data sample.

Both agreement-instantiation policies (LPiB and DIFF, Sect. 4.3), the edge
weights of the graph of agreements, and the LPT load-balancing costs
(Sect. 6.2) are driven by counts collected from a Bernoulli sample of each
input.  For every cell and each input side we track:

* the total number of sampled points,
* the number of points in each of the four border strips (within ``eps`` of
  the E/W/N/S border -- the candidates for replication across that border),
* the number of points within ``eps`` of each of the four cell corners (the
  candidates for replication to the diagonally adjacent cell).

Counters are stored in dense numpy arrays indexed by input and flat cell
id, so collection is fully vectorized; ``sample_halves`` fills the two
halves of one sample in one pass.  The scalar queries
(``pair_candidates``, ``directed_candidates``, ``edge_weight``) are the
reference; the ``*_array`` methods answer the same questions for every
adjacent pair of the grid at once, over
:class:`repro.grid.grid.AdjacentPairs`, and ``candidate_rows`` lists the
nonzero directed candidate counts alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Side
from repro.grid.grid import BORDERS, CORNERS, FACINGS, AdjacentPairs, Grid

_FACING_IDX = {name: i for i, name in enumerate(FACINGS)}
_BORDER_IDX = {name: _FACING_IDX[name] for name in BORDERS}
_CORNER_IDX = {name: _FACING_IDX[name] for name in CORNERS}
# the FACINGS column of each row of _classify's table
_NEAR_COLUMNS = np.array([0, 2, 1, 3, 4, 6, 5, 7], dtype=np.int64)
#: each input's row of the per-input tables
_ROW = {Side.R: 0, Side.S: 1}

# Per FACINGS column: the step to the cell it faces, and that cell's column
# facing back (E|W, N|S, NE|SW, NW|SE).
_STEP_X = np.array([1, -1, 0, 0, 1, -1, 1, -1], dtype=np.int64)
_STEP_Y = np.array([0, 0, 1, -1, 1, 1, -1, -1], dtype=np.int64)
_FACING_BACK = np.array([1, 0, 3, 2, 7, 6, 5, 4], dtype=np.int64)
# ... and whether that cell has the higher flat id (E, N, NE, NW)
_FORWARD = _STEP_Y * 2 + _STEP_X > 0


def _classify(grid: Grid, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Each point's flat cell id, and the ``FACINGS`` slots of its cell it is
    within ``eps`` of: ``(cell ids, (8, points) bool table)``, the table's
    rows in :data:`_NEAR_COLUMNS` order."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have the same shape")
    xs, ys = xs.ravel(), ys.ravel()
    g = grid
    cx, cy = g.cell_indices(xs, ys)
    x0 = g.mbr.xmin + cx * g.cell_w
    y0 = g.mbr.ymin + cy * g.cell_h
    dxr = (x0 + g.cell_w) - xs
    dyt = (y0 + g.cell_h) - ys
    dxl = xs - x0
    dyb = ys - y0
    near = np.empty((8, xs.size), dtype=bool)
    for row, gap in enumerate((dxr, dyt, dxl, dyb)):  # E N W S
        np.less_equal(gap, g.eps, out=near[row])
    sq_r, sq_t, sq_l, sq_b = dxr * dxr, dyt * dyt, dxl * dxl, dyb * dyb
    corners = (sq_r + sq_t, sq_r + sq_b, sq_l + sq_t, sq_l + sq_b)  # NE SE NW SW
    for row, sq in enumerate(corners, start=4):
        np.less_equal(sq, g.eps * g.eps, out=near[row])
    return cy * g.nx + cx, near


def _facing_slots(cells: np.ndarray, near: np.ndarray) -> np.ndarray:
    """``cell * 8 + FACINGS column`` of every slot :func:`_classify` found
    a point near, for the points' ``cells``.  (``compress`` selects by a
    mask as indexing does, several times faster on an irregular mask.)"""
    return (cells * 8 + _NEAR_COLUMNS[:, None]).ravel().compress(near.ravel())


@dataclass(frozen=True)
class CandidateRows:
    """Every nonzero directed candidate count of a grid's statistics, one row
    each, R's rows first (:meth:`GridStatistics.candidate_rows`)."""

    #: the cell holding a row's candidates, and the FACINGS column they face
    tail: np.ndarray
    column: np.ndarray
    #: the cell they are replicated to
    head: np.ndarray
    #: how many candidates
    count: np.ndarray
    #: rows ``[0, num_r)`` are R's
    num_r: int

    @functools.cached_property
    def pairs(self) -> AdjacentPairs:
        """The adjacent pair each row crosses (a pair once per cell of it
        holding candidates towards the other)."""
        tail, head, column = self.tail, self.head, self.column
        back = _FACING_BACK[column]
        forward = _FORWARD[column]
        return AdjacentPairs(
            np.where(forward, tail, head),
            np.where(forward, head, tail),
            np.where(forward, column, back),
            np.where(forward, back, column),
        )


class GridStatistics:
    """Accumulated per-cell sample counts for both join inputs."""

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.num_cells
        # one row per input (R, S)
        self._totals = np.zeros((2, n), dtype=np.int64)
        # per input and cell, one column per FACINGS entry: the four strips,
        # then the four corners
        self._facing_counts = np.zeros((2, n, 8), dtype=np.int64)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    @classmethod
    def sample_halves(
        cls, grid: Grid, xs: np.ndarray, ys: np.ndarray, sizes: tuple[int, ...]
    ) -> tuple["GridStatistics", "GridStatistics"]:
        """Statistics of two halves of one sample, filled in one pass.

        The sample's points come in four consecutive blocks, ``sizes`` long:
        the first half's R and S points, then the second half's.  Each half
        gets what :meth:`add_points` would fill from its two blocks.
        """
        n = grid.num_cells
        cid, near = _classify(grid, xs, ys)
        # the (half, input) table a point counts in, half-major
        cell = cid + np.repeat(np.arange(0, 4 * n, n), sizes)
        totals = np.bincount(cell, minlength=4 * n).reshape(2, 2, n)
        facing = np.bincount(_facing_slots(cell, near), minlength=32 * n)
        facing = facing.reshape(2, 2, n, 8)
        return tuple(
            cls._of(grid, totals[half], facing[half])
            for half in (0, 1)
        )

    @classmethod
    def _of(cls, grid: Grid, totals, facing_counts) -> "GridStatistics":
        """Statistics over tables filled elsewhere (no zeroed ones first)."""
        stats = cls.__new__(cls)
        stats.grid = grid
        stats._totals, stats._facing_counts = totals, facing_counts
        return stats

    def add_points(self, xs: np.ndarray, ys: np.ndarray, side: Side) -> None:
        """Accumulate a batch of sampled points of one input."""
        cid, near = _classify(self.grid, xs, ys)
        row = _ROW[side]
        np.add.at(self._totals[row], cid, 1)
        np.add.at(self._facing_counts[row].ravel(), _facing_slots(cid, near), 1)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def cell_count(self, cell_id: int, side: Side) -> int:
        """Sampled points of one input inside a cell."""
        return int(self._totals[_ROW[side], cell_id])

    def strip_count(self, cell_id: int, border: str, side: Side) -> int:
        """Sampled points of one input within ``eps`` of a cell border."""
        return int(self._facing_counts[_ROW[side], cell_id, _BORDER_IDX[border]])

    def corner_count(self, cell_id: int, corner: str, side: Side) -> int:
        """Sampled points of one input within ``eps`` of a cell corner."""
        return int(self._facing_counts[_ROW[side], cell_id, _CORNER_IDX[corner]])

    def pair_candidates(self, cell_a: int, cell_b: int, side: Side) -> int:
        """Candidate points of one input for replication between two cells.

        For side-adjacent cells these are the points in the two facing
        border strips; for diagonally adjacent cells, the points within
        ``eps`` of the shared corner (in either cell).
        """
        border_a, border_b = self._facing(cell_a, cell_b)
        if border_a in _BORDER_IDX:
            return self.strip_count(cell_a, border_a, side) + self.strip_count(
                cell_b, border_b, side
            )
        return self.corner_count(cell_a, border_a, side) + self.corner_count(
            cell_b, border_b, side
        )

    def directed_candidates(self, tail: int, head: int, side: Side) -> int:
        """Candidate points of one input in ``tail`` for replication to ``head``."""
        border_tail, _ = self._facing(tail, head)
        if border_tail in _BORDER_IDX:
            return self.strip_count(tail, border_tail, side)
        return self.corner_count(tail, border_tail, side)

    def edge_weight(self, tail: int, head: int, agreement: Side) -> int:
        """Weight of directed edge ``tail -> head`` (Sect. 4.3).

        The number of ``agreement``-side points that would be replicated
        from ``tail``, times the number of opposite-side points in ``head``.
        """
        replicated = self.directed_candidates(tail, head, agreement)
        return replicated * self.cell_count(head, agreement.other)

    # ------------------------------------------------------------------
    # the same queries over every adjacent pair at once
    # ------------------------------------------------------------------
    def cell_counts(self, side: Side) -> np.ndarray:
        """:meth:`cell_count` of every cell (the live counter array)."""
        return self._totals[_ROW[side]]

    def cell_count_table(self) -> np.ndarray:
        """:meth:`cell_counts` of R and S as the rows of one live array."""
        return self._totals

    def directed_candidates_array(
        self, pairs: AdjacentPairs, side: Side
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`directed_candidates` of every pair: ``(a -> b, b -> a)``."""
        facing = self._facing_counts[_ROW[side]].ravel()
        slot_a, slot_b = pairs.slots
        return facing[slot_a], facing[slot_b]

    def edge_weights_array(
        self, pairs: AdjacentPairs, agreed_r: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`edge_weight` of every pair's two directed edges.

        ``agreed_r`` is true where the pair's agreement type is R.
        Returns ``(a -> b, b -> a)`` weights.
        """
        r_ab, r_ba = self.directed_candidates_array(pairs, Side.R)
        s_ab, s_ba = self.directed_candidates_array(pairs, Side.S)
        tot_r, tot_s = self._totals
        return (
            np.where(agreed_r, r_ab * tot_s[pairs.b], s_ab * tot_r[pairs.b]),
            np.where(agreed_r, r_ba * tot_s[pairs.a], s_ba * tot_r[pairs.a]),
        )

    def candidate_rows(self) -> CandidateRows:
        """Where each input has candidates to replicate: one row per nonzero
        :meth:`directed_candidates` from a tail cell to an adjacent head cell.

        The empty rows -- most of a fine grid's pairs under a small sample --
        are what the whole-grid :meth:`replica_inflows` spends its time on.
        Only a cell holding sampled points can hold candidates, so the
        search reads those cells' rows of the facing table alone.
        """
        g = self.grid
        n = g.num_cells
        cells = np.flatnonzero(self._totals != 0)  # R's cells, then S's + n
        at = np.flatnonzero(self._facing_counts.reshape(2 * n, 8)[cells] != 0)
        slot = cells[at >> 3] * 8 + (at & 7)
        count = self._facing_counts.ravel()[slot]
        num_r = int(np.searchsorted(slot, 8 * n))
        slot[num_r:] -= 8 * n  # S's slots in its own table
        # a border or corner of the grid's rim faces no cell
        faces = np.ones((g.ny, g.nx, 8), dtype=bool)
        faces[:, -1, _STEP_X == 1] = False
        faces[:, 0, _STEP_X == -1] = False
        faces[-1, :, _STEP_Y == 1] = False
        faces[0, :, _STEP_Y == -1] = False
        on_grid = faces.ravel()[slot]
        if not on_grid.all():
            num_r = int(np.count_nonzero(on_grid[:num_r]))
            slot, count = slot.compress(on_grid), count.compress(on_grid)
        tail, column = slot >> 3, slot & 7
        head = tail + (_STEP_X + _STEP_Y * g.nx)[column]
        return CandidateRows(tail, column, head, count, num_r)

    def replica_inflows(
        self,
        pairs: AdjacentPairs,
        agreed_r: np.ndarray | None,
        replicated: Side | None = None,
    ) -> dict[Side, np.ndarray]:
        """Per-cell candidates of each input arriving from adjacent cells.

        With ``agreed_r`` (true where a pair's agreement type is R) each
        pair carries its agreed input; without it, every pair carries the
        universally ``replicated`` input, if any.  Values are whole numbers
        held as float64.
        """
        n = self.grid.num_cells
        inflows = {}
        for side in Side:
            if agreed_r is not None:
                carries = agreed_r == (side is Side.R)
            elif side is replicated:
                carries = slice(None)
            else:
                inflows[side] = np.zeros(n)
                continue
            into_b, into_a = self.directed_candidates_array(pairs, side)
            inflows[side] = np.bincount(
                pairs.b[carries], weights=into_b[carries], minlength=n
            ) + np.bincount(pairs.a[carries], weights=into_a[carries], minlength=n)
        return inflows

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _facing(self, cell_a: int, cell_b: int) -> tuple[str, str]:
        """The border/corner of each cell that faces the other cell."""
        g = self.grid
        ax, ay = g.cell_pos(cell_a)
        bx, by = g.cell_pos(cell_b)
        dx, dy = bx - ax, by - ay
        if (dx, dy) == (1, 0):
            return "E", "W"
        if (dx, dy) == (-1, 0):
            return "W", "E"
        if (dx, dy) == (0, 1):
            return "N", "S"
        if (dx, dy) == (0, -1):
            return "S", "N"
        if (dx, dy) == (1, 1):
            return "NE", "SW"
        if (dx, dy) == (-1, 1):
            return "NW", "SE"
        if (dx, dy) == (1, -1):
            return "SE", "NW"
        if (dx, dy) == (-1, -1):
            return "SW", "NE"
        raise ValueError(f"cells {cell_a} and {cell_b} are not adjacent")
