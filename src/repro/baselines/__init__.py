"""Competitor algorithms: PBSM variants and the Sedona-like engine.

The PBSM baselines (UNI(R), UNI(S), eps-grid) are grid methods and run
through the main driver (:mod:`repro.joins.distance_join`); this package
adds the spatial index substrates and the Sedona-like three-phase join
(QuadTree partitioning, per-partition R-tree indexing, index probing).
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "quadtree": ("QuadTreePartitioner",),
    "rtree": ("RTree",),
    "rtree_join": ("SamjConfig", "rtree_samj_join"),
    "sedona_like": ("SedonaConfig", "sedona_join"),
})
