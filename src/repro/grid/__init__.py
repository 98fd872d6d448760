"""Regular-grid space partitioning (Sect. 4.1 of the paper)."""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "areas": ("AreaInfo", "AreaKind", "classify_point"),
    "grid": ("Grid",),
    "statistics": ("GridStatistics",),
})
