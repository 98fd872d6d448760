"""The regular grid used to partition the data space.

Following Sect. 4.1 of the paper, the grid is built so every cell side is
strictly larger than ``2 * eps`` (for the default resolution factor of 2).
This bounds replication: a point can be within distance ``eps`` of at most
one vertical and one horizontal cell border, hence it is replicated to at
most three neighbouring cells, all belonging to a single 2x2 *quartet* of
cells around one interior grid corner.

The paper's cell-count formula ``m_x = ceil((x_max - x_min) / (2 eps)) - 1``
is used (generalized to a resolution factor ``k`` for the Fig. 15
experiment), clamped to at least one cell per axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.mbr import MBR

#: Directions of a cell's four borders, in the canonical order used by
#: :class:`repro.grid.statistics.GridStatistics`.
BORDERS = ("E", "W", "N", "S")

#: Cell corners in canonical order.
CORNERS = ("NE", "NW", "SE", "SW")

#: Columns of the per-cell *facing* tables (sample counts, plain-strip
#: destinations): the four borders, then the four corners.
FACINGS = BORDERS + CORNERS

# Per-cell emission order of ``Grid.adjacent_pairs``: the E, N, NE and NW
# neighbour, with the FACINGS column through which each cell of the pair
# faces the other (E|W, N|S, NE|SW, NW|SE).
_FACING_A = np.array([0, 2, 4, 5], dtype=np.int64)
_FACING_B = np.array([1, 3, 7, 6], dtype=np.int64)
_DIRECTIONS = {(1, 0): 0, (0, 1): 1, (1, 1): 2, (-1, 1): 3}  # (dx, dy) -> E N NE NW


@dataclass(frozen=True)
class AdjacentPairs:
    """Adjacent cell pairs of a grid as parallel arrays (``a < b`` by flat id).

    :meth:`Grid.adjacent_pair_arrays` holds every pair, in the order of
    :meth:`Grid.adjacent_pairs`; other rows select from them
    (:attr:`repro.grid.statistics.CandidateRows.pairs`).
    ``facing_a`` / ``facing_b`` are the
    :data:`FACINGS` columns of the border or corner through which ``a``
    faces ``b`` and ``b`` faces ``a``; columns below 4 mean the cells are
    side-adjacent.
    """

    a: np.ndarray
    b: np.ndarray
    facing_a: np.ndarray
    facing_b: np.ndarray

    def __len__(self) -> int:
        return len(self.a)

    @functools.cached_property
    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """``a * 8 + facing_a`` and ``b * 8 + facing_b``: where each cell of a
        pair finds the other in a flattened ``(num_cells, 8)`` per-cell
        table of :data:`FACINGS` columns."""
        return self.a * 8 + self.facing_a, self.b * 8 + self.facing_b


@dataclass(frozen=True)
class Grid:
    """An ``nx x ny`` regular grid over a bounding rectangle.

    Cells are addressed either by integer index pair ``(cx, cy)`` with
    ``0 <= cx < nx`` and ``0 <= cy < ny`` (column/row), or by the flat cell
    id ``cy * nx + cx``.  Interior grid corners -- the reference points of
    quartets -- are addressed by ``(qx, qy)`` with ``1 <= qx <= nx - 1``
    and ``1 <= qy <= ny - 1``; corner ``(qx, qy)`` is the point shared by
    cells ``(qx-1, qy-1)``, ``(qx, qy-1)``, ``(qx-1, qy)`` and ``(qx, qy)``.
    """

    mbr: MBR
    eps: float
    resolution_factor: float = 2.0
    nx: int = field(init=False)
    ny: int = field(init=False)
    cell_w: float = field(init=False)
    cell_h: float = field(init=False)

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: NaN fails every comparison
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.resolution_factor >= 1.0:
            raise ValueError("resolution factor must be >= 1")
        target = self.resolution_factor * self.eps
        nx = max(1, math.ceil(self.mbr.width / target) - 1)
        ny = max(1, math.ceil(self.mbr.height / target) - 1)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)
        # degenerate extents (all points collinear) keep a positive cell
        # size so coordinate arithmetic stays well-defined; with a single
        # cell on that axis the value never affects assignment
        cell_w = self.mbr.width / nx if self.mbr.width > 0 else 2 * target
        cell_h = self.mbr.height / ny if self.mbr.height > 0 else 2 * target
        object.__setattr__(self, "cell_w", cell_w)
        object.__setattr__(self, "cell_h", cell_h)

    # ------------------------------------------------------------------
    # cell addressing
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    def cell_id(self, cx: int, cy: int) -> int:
        """Flat id of the cell at column ``cx``, row ``cy``."""
        return cy * self.nx + cx

    def cell_pos(self, cell_id: int) -> tuple[int, int]:
        """Inverse of :meth:`cell_id`."""
        return cell_id % self.nx, cell_id // self.nx

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        """The cell enclosing a point (half-open cells, clamped to grid)."""
        cx = int((x - self.mbr.xmin) / self.cell_w)
        cy = int((y - self.mbr.ymin) / self.cell_h)
        return (min(max(cx, 0), self.nx - 1), min(max(cy, 0), self.ny - 1))

    def cell_indices(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`cell_index` for arrays of coordinates: ``(cx, cy)`` int64."""
        cx = ((np.asarray(xs, dtype=np.float64) - self.mbr.xmin) / self.cell_w).astype(np.int64)
        cy = ((np.asarray(ys, dtype=np.float64) - self.mbr.ymin) / self.cell_h).astype(np.int64)
        # astype truncates towards zero, as int() does; clamp in place
        np.minimum(np.maximum(cx, 0, out=cx), self.nx - 1, out=cx)
        np.minimum(np.maximum(cy, 0, out=cy), self.ny - 1, out=cy)
        return cx, cy

    def cell_of(self, x: float, y: float) -> int:
        """Flat id of the cell enclosing a point."""
        return self.cell_id(*self.cell_index(x, y))

    def cell_mbr(self, cx: int, cy: int) -> MBR:
        """The rectangle covered by cell ``(cx, cy)``."""
        x0 = self.mbr.xmin + cx * self.cell_w
        y0 = self.mbr.ymin + cy * self.cell_h
        return MBR(x0, y0, x0 + self.cell_w, y0 + self.cell_h)

    def in_bounds(self, cx: int, cy: int) -> bool:
        return 0 <= cx < self.nx and 0 <= cy < self.ny

    def neighbors(self, cx: int, cy: int):
        """The existing 8-neighbourhood cells of ``(cx, cy)``."""
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                if self.in_bounds(cx + dx, cy + dy):
                    yield (cx + dx, cy + dy)

    # ------------------------------------------------------------------
    # corners / quartets
    # ------------------------------------------------------------------
    def corner_coords(self, qx: int, qy: int) -> tuple[float, float]:
        """Coordinates of grid corner ``(qx, qy)``."""
        return (self.mbr.xmin + qx * self.cell_w, self.mbr.ymin + qy * self.cell_h)

    def is_interior_corner(self, qx: int, qy: int) -> bool:
        """Whether corner ``(qx, qy)`` is shared by four cells."""
        return 1 <= qx <= self.nx - 1 and 1 <= qy <= self.ny - 1

    def interior_corners(self):
        """All interior corners, i.e. all quartet reference points."""
        for qy in range(1, self.ny):
            for qx in range(1, self.nx):
                yield (qx, qy)

    def quartet_cells(self, qx: int, qy: int) -> dict[str, int]:
        """Flat ids of the quartet around corner ``(qx, qy)``.

        Keys name the cell's position relative to the corner: ``bl``
        (bottom-left), ``br``, ``tl``, ``tr``.
        """
        return {
            "bl": self.cell_id(qx - 1, qy - 1),
            "br": self.cell_id(qx, qy - 1),
            "tl": self.cell_id(qx - 1, qy),
            "tr": self.cell_id(qx, qy),
        }

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def adjacent_pairs(self):
        """Every unordered pair of adjacent cells, each reported once.

        Yields ``(cell_a, cell_b, kind)`` where ``kind`` is ``"side"`` for
        cells sharing a border segment and ``"corner"`` for cells sharing a
        single touching point.  ``cell_a < cell_b`` by flat id.
        """
        for cy in range(self.ny):
            for cx in range(self.nx):
                cid = self.cell_id(cx, cy)
                if cx + 1 < self.nx:
                    yield (cid, self.cell_id(cx + 1, cy), "side")
                if cy + 1 < self.ny:
                    yield (cid, self.cell_id(cx, cy + 1), "side")
                if cx + 1 < self.nx and cy + 1 < self.ny:
                    yield (cid, self.cell_id(cx + 1, cy + 1), "corner")
                if cx > 0 and cy + 1 < self.ny:
                    a = self.cell_id(cx - 1, cy + 1)
                    yield (min(cid, a), max(cid, a), "corner")

    @property
    def num_adjacent_pairs(self) -> int:
        """How many pairs :meth:`adjacent_pairs` yields (side + corner)."""
        nx, ny = self.nx, self.ny
        return (nx - 1) * ny + nx * (ny - 1) + 2 * (nx - 1) * (ny - 1)

    def adjacent_pair_arrays(self) -> AdjacentPairs:
        """:meth:`adjacent_pairs` as arrays, for whole-grid array algebra.

        Computed on first use and kept with the grid: every caller shares
        the same read-only arrays.
        """
        pairs = self.__dict__.get("_adjacent_pairs")
        if pairs is None:
            nx = self.nx
            exists = np.ones((self.ny, nx, 4), dtype=bool)  # per cell: E N NE NW
            exists[:, -1, [0, 2]] = False  # no east neighbour
            exists[-1, :, 1:] = False  # none to the north
            exists[:, 0, 3] = False  # none to the west
            a, direction = np.divmod(np.flatnonzero(exists), 4)  # row-major
            b = a + np.array([1, nx, nx + 1, nx - 1], dtype=np.int64)[direction]
            pairs = AdjacentPairs(a, b, _FACING_A[direction], _FACING_B[direction])
            for column in (pairs.a, pairs.b, pairs.facing_a, pairs.facing_b):
                column.setflags(write=False)
            # a cache, not a field: equality, hashing and pickling ignore it
            object.__setattr__(self, "_adjacent_pairs", pairs)
        return pairs

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_adjacent_pairs", None)
        return state

    def adjacent_pair_index(self, cell_a: int, cell_b: int) -> int:
        """Position of an adjacent pair in :meth:`adjacent_pairs` order.

        Raises ``ValueError`` for non-adjacent or identical cells.
        """
        a, b = min(cell_a, cell_b), max(cell_a, cell_b)
        nx = self.nx
        ax, ay = self.cell_pos(a)
        step = (b % nx - ax, b // nx - ay)
        if step not in _DIRECTIONS or not 0 <= a < b < self.num_cells:
            raise ValueError(f"cells {cell_a} and {cell_b} are not adjacent")
        # every row below the top one emits E, N and NE per cell that has an
        # east neighbour, N for the last cell, NW for all but the first
        before = ay * (4 * nx - 3)
        if ay == self.ny - 1:  # top row: E only
            return before + ax
        east = ax + 1 < nx
        offset = (0, east, east + 1, 2 * east + 1)[_DIRECTIONS[step]]
        return before + 4 * ax - (ax > 0) + offset

    def describe(self) -> str:
        """A one-line human-readable summary of the grid."""
        return (
            f"Grid {self.nx}x{self.ny} over {self.mbr}, "
            f"cell {self.cell_w:.4g}x{self.cell_h:.4g}, eps={self.eps:.4g}"
        )
