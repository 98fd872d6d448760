"""Ground-truth joins and assignment verification utilities."""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "invariants": ("ResultValidation", "validate_join_result"),
    "oracle": (
        "VerificationResult", "assignment_join_pairs", "brute_force_pairs",
        "kdtree_pairs", "verify_assignment",
    ),
})
