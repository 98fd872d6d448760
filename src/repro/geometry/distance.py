"""Distance functions and predicates used by the join algorithms.

All algorithms in this library use the Euclidean metric, matching the
paper's :math:`\\epsilon`-distance join definition (Def. 3.1).  The
squared-distance variants let hot loops skip the square root.
"""

from __future__ import annotations


def euclidean(x1: float, y1: float, x2: float, y2: float) -> float:
    """Euclidean distance between two points."""
    dx = x1 - x2
    dy = y1 - y2
    return (dx * dx + dy * dy) ** 0.5


def euclidean_sq(x1: float, y1: float, x2: float, y2: float) -> float:
    """Squared Euclidean distance between two points."""
    dx = x1 - x2
    dy = y1 - y2
    return dx * dx + dy * dy

