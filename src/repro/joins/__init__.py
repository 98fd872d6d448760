"""Parallel epsilon-distance join drivers and local join kernels."""

from repro._lazy import _lazy_exports

# importing any join module registers the point kernels with the engine
from repro.joins import local as _local  # noqa: F401
# eager: the function shadows its own submodule, which a lazy name cannot
from repro.joins.distance_join import distance_join

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "api": ("spatial_join",),
    "distance_join": ("JoinConfig", "JoinResult"),
    "local": (
        "LOCAL_KERNELS", "grid_hash_join", "nested_loop_join", "plane_sweep_join",
    ),
    "object_join": (
        "ObjectJoinConfig", "ObjectJoinResult", "ObjectSet",
        "object_distance_join", "object_intersection_join",
    ),
    "postprocess": ("post_process_attributes",),
    "queries": ("QueryResult", "closest_pairs", "knn_join", "self_join"),
})
__all__.append("distance_join")
