"""Point-to-cell assignment with adaptive or universal replication."""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "assign": ("AdaptiveAssigner", "Assigner", "medupar", "supar"),
    "pbsm": ("UniversalAssigner", "replication_targets_universal"),
})
