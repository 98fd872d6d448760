"""Field checks shared by the config dataclasses.

Each config checks its own fields at construction; these are the rules
that several of them share.  A failed check raises a ``ValueError``
naming the field.  The comparisons are written so that NaN fails them.
"""

from __future__ import annotations

import math
import numbers


def check_count(name: str, value, low: int, high: int | None = None) -> None:
    """``value`` is a whole number in ``[low, high]``: ``4`` or ``4.0``,
    never ``2.5``, NaN or infinity."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if not (whole and value >= low and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be a whole number {bound}, got {value}")


def check_positive(name: str, value) -> None:
    """``value`` is a finite number > 0."""
    if not (
        isinstance(value, numbers.Real) and math.isfinite(value) and value > 0
    ):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
