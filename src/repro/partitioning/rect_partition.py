"""Rectangulations of the data space with a minimum leaf side of 2 eps.

A :class:`RectPartition` tiles the data-space MBR into axis-aligned
rectangular *leaves*.  The generalized adaptive join requires:

* every leaf side >= ``2 * eps`` -- so a point can be within ``eps`` only
  of leaves *touching* its native leaf (for dyadic QuadTrees all leaf
  edges lie on a common integral lattice, which makes the gap between
  any two non-touching leaves at least one minimum side);
* the adjacency structure (leaves sharing a border segment or a point);
* the *hazard corners*: points where three or more leaves meet -- the
  spots where mixing agreement types can duplicate results.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.geometry.mbr import MBR
from repro.grid.grid import Grid


class RectPartition(abc.ABC):
    """A tiling of the data space into rectangular leaves."""

    def __init__(self, mbr: MBR, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.mbr = mbr
        self.eps = eps
        self.leaves: list[MBR] = []
        self._adjacency: dict[int, list[int]] | None = None
        self._corner_tree = None
        self._corners: np.ndarray | None = None

    # -- to be provided by subclasses ----------------------------------
    @abc.abstractmethod
    def leaf_of(self, x: float, y: float) -> int:
        """The single leaf containing a point (half-open tiling)."""

    # -- shared machinery ----------------------------------------------
    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def validate(self) -> None:
        """Check the minimum-side invariant and the exact tiling."""
        for i, leaf in enumerate(self.leaves):
            if leaf.width < 2 * self.eps - 1e-12 or leaf.height < 2 * self.eps - 1e-12:
                raise ValueError(
                    f"leaf {i} ({leaf}) violates the 2*eps minimum side"
                )
        total = sum(leaf.area for leaf in self.leaves)
        if abs(total - self.mbr.area) > 1e-6 * max(self.mbr.area, 1.0):
            raise ValueError("leaves do not tile the data space")

    def neighbors(self, leaf_id: int) -> list[int]:
        """Leaves touching the given leaf (shared segment or point)."""
        if self._adjacency is None:
            self._build_adjacency()
        return self._adjacency[leaf_id]

    def adjacent_pairs(self):
        """Every unordered pair of touching leaves, once."""
        if self._adjacency is None:
            self._build_adjacency()
        for a, nbrs in self._adjacency.items():
            for b in nbrs:
                if a < b:
                    yield (a, b)

    def _build_adjacency(self) -> None:
        self._adjacency = {i: [] for i in range(self.num_leaves)}
        for i in range(self.num_leaves):
            for j in range(i + 1, self.num_leaves):
                if self.leaves[i].intersects(self.leaves[j]):
                    self._adjacency[i].append(j)
                    self._adjacency[j].append(i)

    # -- hazard corners --------------------------------------------------
    def hazard_corners(self) -> np.ndarray:
        """Points where at least three leaves meet, as an (n, 2) array.

        Each unique leaf vertex is probed with four diagonal offsets: the
        distinct leaves covering the four quadrants around the vertex are
        exactly the leaves meeting there (offsets are far smaller than the
        ``2 * eps`` minimum leaf side, so no leaf can be skipped).  This
        also catches T-junctions, where the through-going leaf does not
        have the meeting point as one of its own vertices.
        """
        if self._corners is None:
            delta = 1e-9 * max(self.mbr.width, self.mbr.height, 1.0)
            seen: dict[tuple[float, float], tuple[float, float]] = {}
            for leaf in self.leaves:
                for vx in (leaf.xmin, leaf.xmax):
                    for vy in (leaf.ymin, leaf.ymax):
                        seen.setdefault((round(vx, 9), round(vy, 9)), (vx, vy))
            corners = []
            for vx, vy in seen.values():
                meeting = {
                    self.leaf_of(vx + sx * delta, vy + sy * delta)
                    for sx in (-1, 1)
                    for sy in (-1, 1)
                }
                if len(meeting) >= 3:
                    corners.append((vx, vy))
            self._corners = (
                np.asarray(corners, dtype=np.float64)
                if corners
                else np.empty((0, 2))
            )
        return self._corners

    def _tree(self, corners: np.ndarray):
        """The KD-tree over the hazard corners, built on first use."""
        if self._corner_tree is None:
            from scipy.spatial import cKDTree

            self._corner_tree = cKDTree(corners)
        return self._corner_tree

    def corner_distance(self, x: float, y: float) -> float:
        """Distance to the nearest hazard corner (inf if none exist)."""
        corners = self.hazard_corners()
        if len(corners) == 0:
            return float("inf")
        return float(self._tree(corners).query([x, y])[0])

    def corner_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`corner_distance`."""
        corners = self.hazard_corners()
        if len(corners) == 0:
            return np.full(len(xs), np.inf)
        return self._tree(corners).query(np.column_stack([xs, ys]))[0]

    def targets_within_eps(self, x: float, y: float, native: int) -> list[int]:
        """Touching leaves within ``eps`` of a point of the native leaf."""
        eps = self.eps
        return [
            m
            for m in self.neighbors(native)
            if self.leaves[m].mindist_point(x, y) <= eps
        ]


class GridRectPartition(RectPartition):
    """The paper's uniform grid, as a rectangulation."""

    def __init__(self, grid: Grid):
        super().__init__(grid.mbr, grid.eps)
        self.grid = grid
        self.leaves = [
            grid.cell_mbr(*grid.cell_pos(c)) for c in range(grid.num_cells)
        ]

    def leaf_of(self, x: float, y: float) -> int:
        return self.grid.cell_of(x, y)

    def _build_adjacency(self) -> None:
        self._adjacency = {}
        g = self.grid
        for c in range(g.num_cells):
            cx, cy = g.cell_pos(c)
            self._adjacency[c] = [g.cell_id(nx, ny) for nx, ny in g.neighbors(cx, cy)]


class QuadtreeRectPartition(RectPartition):
    """A sample-adaptive dyadic QuadTree rectangulation.

    Leaves split into exact quarters while they hold more than
    ``capacity`` sample points *and* the children would still respect the
    ``2 * eps`` minimum side.  The dyadic alignment guarantees that two
    non-touching leaves are at least one minimum side apart, which the
    generalized join's replication rule relies on.
    """

    def __init__(
        self,
        mbr: MBR,
        eps: float,
        sample_xs: np.ndarray,
        sample_ys: np.ndarray,
        capacity: int = 64,
    ):
        super().__init__(mbr, eps)
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._children: list[list[int]] = []
        self._boxes: list[MBR] = []
        self._leaf_index: dict[int, int] = {}
        xs = np.asarray(sample_xs, dtype=np.float64)
        ys = np.asarray(sample_ys, dtype=np.float64)
        self._root = self._build(mbr, xs, ys)
        self.leaves = [self._boxes[n] for n in sorted(self._leaf_index)]
        order = {node: i for i, node in enumerate(sorted(self._leaf_index))}
        self._leaf_index = {node: order[node] for node in self._leaf_index}

    def _new_node(self, box: MBR) -> int:
        self._boxes.append(box)
        self._children.append([])
        return len(self._boxes) - 1

    def _build(self, box: MBR, xs: np.ndarray, ys: np.ndarray) -> int:
        node = self._new_node(box)
        can_split = (
            box.width / 2 >= 2 * self.eps and box.height / 2 >= 2 * self.eps
        )
        if len(xs) > self.capacity and can_split:
            midx, midy = box.center
            quads = [
                MBR(box.xmin, box.ymin, midx, midy),
                MBR(midx, box.ymin, box.xmax, midy),
                MBR(box.xmin, midy, midx, box.ymax),
                MBR(midx, midy, box.xmax, box.ymax),
            ]
            west = xs < midx
            south = ys < midy
            masks = [west & south, ~west & south, west & ~south, ~west & ~south]
            for quad, mask in zip(quads, masks):
                child = self._build(quad, xs[mask], ys[mask])
                self._children[node].append(child)
        else:
            self._leaf_index[node] = -1  # filled in afterwards
        return node

    def leaf_of(self, x: float, y: float) -> int:
        node = self._root
        while self._children[node]:
            box = self._boxes[node]
            midx, midy = box.center
            index = (0 if x < midx else 1) + (0 if y < midy else 2)
            node = self._children[node][index]
        return self._leaf_index[node]
