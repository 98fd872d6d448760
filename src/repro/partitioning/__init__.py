"""Rectangular space partitions beyond the uniform grid (Sect. 8).

The paper's future work asks to generalize the graph-of-agreements
abstraction to other partitioning schemes such as QuadTrees.  This
package provides the partition abstraction -- any tiling of the data
space into axis-aligned rectangles whose sides are at least ``2 * eps``
-- with two concrete implementations: the paper's uniform grid and a
sample-built dyadic QuadTree.

The generalized join that runs on these partitions lives in
:mod:`repro.joins.generalized_join`.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "rect_partition": ("GridRectPartition", "QuadtreeRectPartition", "RectPartition"),
})
