"""Universal (PBSM-style) replication assigners.

PBSM replicates every point of **one** chosen input to every cell within
distance ``eps`` (Sect. 1 and Fig. 1a of the paper).  The other input is
assigned only to its native cell.  This module implements that scheme for
any grid resolution, covering the paper's three baselines:

* ``UNI(R)`` / ``UNI(S)``: replicate R (or S) on the default ``2 eps`` grid;
* ``eps-grid``: replicate the smaller input on an ``eps``-resolution grid,
  where a point may be replicated to cells beyond its 8-neighbourhood.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.replication.assign import _mindist_sq


def replication_targets_universal(grid: Grid, x: float, y: float) -> tuple[int, ...]:
    """Ids of all non-native cells within ``eps`` of the point.

    Works for any cell size: scans the index window covered by the
    ``eps``-disc around the point and keeps cells with MINDIST <= eps.
    """
    eps = grid.eps
    ncx, ncy = grid.cell_index(x, y)
    lo_x = max(0, int(math.floor((x - eps - grid.mbr.xmin) / grid.cell_w)))
    hi_x = min(grid.nx - 1, int(math.floor((x + eps - grid.mbr.xmin) / grid.cell_w)))
    lo_y = max(0, int(math.floor((y - eps - grid.mbr.ymin) / grid.cell_h)))
    hi_y = min(grid.ny - 1, int(math.floor((y + eps - grid.mbr.ymin) / grid.cell_h)))
    targets = []
    for cyy in range(lo_y, hi_y + 1):
        for cxx in range(lo_x, hi_x + 1):
            if (cxx, cyy) == (ncx, ncy):
                continue
            if _mindist_sq(grid, cxx, cyy, x, y) <= eps * eps:
                targets.append(grid.cell_id(cxx, cyy))
    return tuple(targets)


class UniversalAssigner:
    """PBSM assignment: one input is universally replicated."""

    def __init__(self, grid: Grid, replicated: Side):
        self.grid = grid
        self.replicated = replicated

    def assign(self, x: float, y: float, side: Side) -> tuple[int, ...]:
        """Native cell first, then (for the replicated input) all targets."""
        native = self.grid.cell_of(x, y)
        if side != self.replicated:
            return (native,)
        return (native, *replication_targets_universal(self.grid, x, y))

    def assign_batch(
        self, xs: np.ndarray, ys: np.ndarray, side: Side
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assign many points at once; see
        :meth:`repro.replication.assign.AdaptiveAssigner.assign_batch`.

        On grids with cell sides >= ``2 * eps`` replication targets lie in
        the 8-neighbourhood and are emitted direction by direction; finer
        grids (the eps-grid baseline) scan every point's index window at
        once and emit point by point, as :meth:`assign` does.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        grid = self.grid
        cx, cy = grid.cell_indices(xs, ys)
        native = cy * grid.nx + cx
        all_idx = np.arange(len(xs), dtype=np.int64)
        if side != self.replicated:
            return native, all_idx

        eps = grid.eps
        if grid.cell_w < 2 * eps or grid.cell_h < 2 * eps:
            # replication_targets_universal's window, one offset at a time
            def window(v, v0, step, n):
                lo = np.maximum(0, np.floor((v - eps - v0) / step).astype(np.int64))
                hi = np.minimum(n - 1, np.floor((v + eps - v0) / step).astype(np.int64))
                return lo, hi, max(1, int(np.max(hi - lo, initial=0)) + 1)

            lo_x, hi_x, wx = window(xs, grid.mbr.xmin, grid.cell_w, grid.nx)
            lo_y, hi_y, wy = window(ys, grid.mbr.ymin, grid.cell_h, grid.ny)
            # column 0 is the native cell, column 1 + oy * wx + ox the window
            # cell at that offset: row by row, assign()'s emission order
            keep = np.zeros((len(xs), 1 + wy * wx), dtype=bool)
            keep[:, 0] = True
            for oy in range(wy):
                for ox in range(wx):
                    cxx, cyy = lo_x + ox, lo_y + oy
                    keep[:, 1 + oy * wx + ox] = (
                        (cxx <= hi_x)
                        & (cyy <= hi_y)
                        & ((cxx != cx) | (cyy != cy))
                        & (_mindist_sq(grid, cxx, cyy, xs, ys) <= eps * eps)
                    )
            idxs, column = np.divmod(np.flatnonzero(keep), keep.shape[1])
            oy, ox = np.divmod(column - 1, wx)
            scanned = (lo_y[idxs] + oy) * grid.nx + lo_x[idxs] + ox
            return np.where(column == 0, native[idxs], scanned), idxs

        x0 = grid.mbr.xmin + cx * grid.cell_w
        y0 = grid.mbr.ymin + cy * grid.cell_h
        dxl, dxr = xs - x0, (x0 + grid.cell_w) - xs
        dyb, dyt = ys - y0, (y0 + grid.cell_h) - ys
        eps_sq = eps * eps

        out_cells = [native]
        out_idx = [all_idx]

        def emit(mask: np.ndarray, dx: int, dy: int) -> None:
            if mask.any():
                sel = np.nonzero(mask)[0]
                out_cells.append((cy[sel] + dy) * grid.nx + (cx[sel] + dx))
                out_idx.append(sel)

        east = (dxr <= eps) & (cx + 1 < grid.nx)
        west = (dxl <= eps) & (cx > 0)
        north = (dyt <= eps) & (cy + 1 < grid.ny)
        south = (dyb <= eps) & (cy > 0)
        emit(east, 1, 0)
        emit(west, -1, 0)
        emit(north, 0, 1)
        emit(south, 0, -1)
        emit((dxr * dxr + dyt * dyt <= eps_sq) & east & north, 1, 1)
        emit((dxl * dxl + dyt * dyt <= eps_sq) & west & north, -1, 1)
        emit((dxr * dxr + dyb * dyb <= eps_sq) & east & south, 1, -1)
        emit((dxl * dxl + dyb * dyb <= eps_sq) & west & south, -1, -1)
        return np.concatenate(out_cells), np.concatenate(out_idx)
