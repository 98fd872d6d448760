"""Parallel spatial join processing with adaptive replication.

A from-scratch reproduction of the EDBT 2025 paper by Koutroumanis,
Doulkeridis and Vlachou: the graph-of-agreements framework, the adaptive
replication algorithms, the PBSM and Sedona-like baselines, and a
simulated Spark cluster for the evaluation.

Quick start::

    from repro import gaussian_clusters, spatial_join

    r = gaussian_clusters(10_000, seed=1)
    s = gaussian_clusters(10_000, seed=2)
    result = spatial_join(r, s, eps=0.012, method="lpib")
    print(len(result), "pairs;", result.metrics.summary())
"""

from repro._lazy import _lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "core.cost_model": ("predict_join",),
    "data.datasets": ("TUPLE_SIZE_FACTORS", "load_dataset"),
    "data.generators": ("gaussian_clusters", "real_like", "uniform"),
    "data.object_generators": ("random_boxes", "random_polygons", "random_polylines"),
    "data.pointset": ("PointSet",),
    "geometry.mbr": ("MBR",),
    "geometry.objects": ("BoxObject", "PolygonObject", "PolylineObject"),
    "geometry.point": ("Side",),
    "grid.grid": ("Grid",),
    "joins.api": ("ALL_METHODS", "spatial_join"),
    "joins.distance_join": ("JoinConfig", "JoinResult", "distance_join"),
    "joins.object_join": (
        "ObjectSet", "object_distance_join", "object_intersection_join",
    ),
    "joins.queries": ("closest_pairs", "knn_join", "self_join"),
})
