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

Counters are stored in dense numpy arrays indexed by flat cell id, so
collection is fully vectorized.  The scalar queries (``pair_candidates``,
``directed_candidates``, ``edge_weight``) are the reference; the ``*_array``
methods answer the same questions for every adjacent pair of the grid at
once, over :class:`repro.grid.grid.AdjacentPairs`.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.point import Side
from repro.grid.grid import BORDERS, CORNERS, FACINGS, AdjacentPairs, Grid

_FACING_IDX = {name: i for i, name in enumerate(FACINGS)}
_BORDER_IDX = {name: _FACING_IDX[name] for name in BORDERS}
_CORNER_IDX = {name: _FACING_IDX[name] for name in CORNERS}


class GridStatistics:
    """Accumulated per-cell sample counts for both join inputs."""

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.num_cells
        self._totals = {s: np.zeros(n, dtype=np.int64) for s in Side}
        # one column per FACINGS entry: the four strips, then the four corners
        self._facing_counts = {s: np.zeros((n, 8), dtype=np.int64) for s in Side}
        self._sampled = {s: 0 for s in Side}

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def add_points(self, xs: np.ndarray, ys: np.ndarray, side: Side) -> None:
        """Accumulate a batch of sampled points of one input."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same shape")
        g = self.grid
        cx = np.clip(((xs - g.mbr.xmin) / g.cell_w).astype(np.int64), 0, g.nx - 1)
        cy = np.clip(((ys - g.mbr.ymin) / g.cell_h).astype(np.int64), 0, g.ny - 1)
        cid = cy * g.nx + cx

        np.add.at(self._totals[side], cid, 1)
        self._sampled[side] += xs.size

        x0 = g.mbr.xmin + cx * g.cell_w
        y0 = g.mbr.ymin + cy * g.cell_h
        dxl = xs - x0
        dxr = (x0 + g.cell_w) - xs
        dyb = ys - y0
        dyt = (y0 + g.cell_h) - ys
        eps = g.eps

        eps_sq = eps * eps
        near = {
            "E": dxr <= eps,
            "W": dxl <= eps,
            "N": dyt <= eps,
            "S": dyb <= eps,
            "NE": dxr * dxr + dyt * dyt <= eps_sq,
            "NW": dxl * dxl + dyt * dyt <= eps_sq,
            "SE": dxr * dxr + dyb * dyb <= eps_sq,
            "SW": dxl * dxl + dyb * dyb <= eps_sq,
        }
        facing = self._facing_counts[side]
        for name, mask in near.items():
            if mask.any():
                np.add.at(facing[:, _FACING_IDX[name]], cid[mask], 1)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sampled_count(self, side: Side) -> int:
        """How many points of one input were accumulated."""
        return self._sampled[side]

    def cell_count(self, cell_id: int, side: Side) -> int:
        """Sampled points of one input inside a cell."""
        return int(self._totals[side][cell_id])

    def strip_count(self, cell_id: int, border: str, side: Side) -> int:
        """Sampled points of one input within ``eps`` of a cell border."""
        return int(self._facing_counts[side][cell_id, _BORDER_IDX[border]])

    def corner_count(self, cell_id: int, corner: str, side: Side) -> int:
        """Sampled points of one input within ``eps`` of a cell corner."""
        return int(self._facing_counts[side][cell_id, _CORNER_IDX[corner]])

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

    def estimated_cell_cost(self, cell_id: int, scale: float = 1.0) -> float:
        """Estimated join cost of a cell: ``|R_i| * |S_i|`` on the sample.

        ``scale`` converts sample counts to full-data estimates (use
        ``1 / phi`` for a Bernoulli sampling rate ``phi``; the product then
        scales by ``1 / phi**2``).
        """
        r = self._totals[Side.R][cell_id] * scale
        s = self._totals[Side.S][cell_id] * scale
        return float(r * s)

    # ------------------------------------------------------------------
    # the same queries over every adjacent pair at once
    # ------------------------------------------------------------------
    def cell_counts(self, side: Side) -> np.ndarray:
        """:meth:`cell_count` of every cell (the live counter array)."""
        return self._totals[side]

    def directed_candidates_array(
        self, pairs: AdjacentPairs, side: Side
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`directed_candidates` of every pair: ``(a -> b, b -> a)``."""
        facing = self._facing_counts[side]
        return facing[pairs.a, pairs.facing_a], facing[pairs.b, pairs.facing_b]

    def edge_weights_array(
        self, pairs: AdjacentPairs, agreed_r: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`edge_weight` of every pair's two directed edges.

        ``agreed_r`` is true where the pair's agreement type is R.
        Returns ``(a -> b, b -> a)`` weights.
        """
        r_ab, r_ba = self.directed_candidates_array(pairs, Side.R)
        s_ab, s_ba = self.directed_candidates_array(pairs, Side.S)
        tot_r, tot_s = self._totals[Side.R], self._totals[Side.S]
        return (
            np.where(agreed_r, r_ab * tot_s[pairs.b], s_ab * tot_r[pairs.b]),
            np.where(agreed_r, r_ba * tot_s[pairs.a], s_ba * tot_r[pairs.a]),
        )

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
