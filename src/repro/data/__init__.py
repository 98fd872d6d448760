"""Data sets: point collections, generators, sampling and text IO."""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "datasets": ("TUPLE_SIZE_FACTORS", "DatasetSpec", "load_dataset"),
    "generators": ("gaussian_clusters", "real_like", "uniform"),
    "io": ("read_points_text", "write_points_text"),
    "pointset": ("PointSet", "dataset_fingerprint"),
    "sampling": ("bernoulli_sample", "sample_pair"),
})
