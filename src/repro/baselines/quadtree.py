"""Sample-based QuadTree space partitioner (Sedona's partitioning scheme).

The tree is grown over a sample of one input: a leaf splits into four
equal quadrants once it holds more than ``capacity`` sample points (up to
``max_depth``).  The resulting leaves tile the data space exactly --
half-open on their upper edges so every point belongs to one leaf -- and
become the join partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.mbr import MBR


@dataclass
class _QNode:
    mbr: MBR
    depth: int
    count: int = 0
    children: list = field(default_factory=list)  # 0 or 4 _QNode
    leaf_id: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children


class QuadTreePartitioner:
    """A QuadTree whose leaves are the space partitions."""

    def __init__(
        self,
        mbr: MBR,
        sample_xs: np.ndarray,
        sample_ys: np.ndarray,
        capacity: int = 256,
        max_depth: int = 12,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.mbr = mbr
        self.capacity = capacity
        self.max_depth = max_depth
        self.root = _QNode(mbr, 0)
        self._build(np.asarray(sample_xs, float), np.asarray(sample_ys, float))
        self._leaves: list[_QNode] = []
        self._collect_leaves(self.root)
        for i, leaf in enumerate(self._leaves):
            leaf.leaf_id = i

    # ------------------------------------------------------------------
    def _build(self, xs: np.ndarray, ys: np.ndarray) -> None:
        stack = [(self.root, xs, ys)]
        while stack:
            node, nxs, nys = stack.pop()
            node.count = len(nxs)
            if len(nxs) <= self.capacity or node.depth >= self.max_depth:
                continue
            m = node.mbr
            midx, midy = m.center
            quadrants = [
                MBR(m.xmin, m.ymin, midx, midy),
                MBR(midx, m.ymin, m.xmax, midy),
                MBR(m.xmin, midy, midx, m.ymax),
                MBR(midx, midy, m.xmax, m.ymax),
            ]
            west = nxs < midx
            south = nys < midy
            masks = [west & south, ~west & south, west & ~south, ~west & ~south]
            for quad, mask in zip(quadrants, masks):
                child = _QNode(quad, node.depth + 1)
                node.children.append(child)
                stack.append((child, nxs[mask], nys[mask]))

    def _collect_leaves(self, node: _QNode) -> None:
        if node.is_leaf:
            self._leaves.append(node)
        else:
            for child in node.children:
                self._collect_leaves(child)

    # ------------------------------------------------------------------
    @property
    def num_leaves(self) -> int:
        return len(self._leaves)

    def leaf_of(self, x: float, y: float) -> int:
        """The single leaf containing a point (half-open tiling; points on
        the global upper edges belong to the last quadrant)."""
        node = self.root
        while not node.is_leaf:
            midx, midy = node.mbr.center
            index = (0 if x < midx else 1) + (0 if y < midy else 2)
            node = node.children[index]
        return node.leaf_id

    def leaves_overlapping(self, rect: MBR) -> list[int]:
        """Ids of all leaves intersecting a rectangle."""
        out: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.mbr.intersects(rect):
                continue
            if node.is_leaf:
                out.append(node.leaf_id)
            else:
                stack.extend(node.children)
        return out

    def leaf_of_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized-ish :meth:`leaf_of` over arrays."""
        return np.fromiter(
            (self.leaf_of(float(x), float(y)) for x, y in zip(xs, ys)),
            dtype=np.int64,
            count=len(xs),
        )
