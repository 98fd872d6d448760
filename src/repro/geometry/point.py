"""The two join inputs.

The :math:`\\epsilon`-distance join operates on two collections of points,
conventionally named *R* and *S*; :class:`Side` names one of them.  The
points themselves live column-wise in :class:`~repro.data.pointset.PointSet`.
"""

from __future__ import annotations

import enum


class Side(enum.Enum):
    """Which join input a point (or an agreement) refers to."""

    R = "R"
    S = "S"

    @property
    def other(self) -> "Side":
        """The opposite join input."""
        return Side.S if self is Side.R else Side.R

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
