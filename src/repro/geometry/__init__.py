"""Geometric primitives: points, rectangles, and distance predicates."""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "distance": ("euclidean", "euclidean_sq", "mindist_point_rect", "within_eps"),
    "mbr": ("MBR",),
    "objects": (
        "BoxObject", "PolygonObject", "PolylineObject", "SpatialObject",
        "objects_intersect",
    ),
    "point": ("Side", "SpatialPoint"),
})
