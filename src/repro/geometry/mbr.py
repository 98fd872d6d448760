"""Axis-aligned minimum bounding rectangles."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MBR:
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"degenerate MBR: ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def contains_point(self, x: float, y: float) -> bool:
        """Whether ``(x, y)`` lies inside this (closed) rectangle."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def intersects(self, other: "MBR") -> bool:
        """Whether the two closed rectangles share at least one point."""
        return not (
            self.xmax < other.xmin
            or other.xmax < self.xmin
            or self.ymax < other.ymin
            or other.ymax < self.ymin
        )

    def mindist_point(self, x: float, y: float) -> float:
        """MINDIST from a point to this rectangle (0 if inside)."""
        dx = max(self.xmin - x, 0.0, x - self.xmax)
        dy = max(self.ymin - y, 0.0, y - self.ymax)
        return (dx * dx + dy * dy) ** 0.5

    def union(self, other: "MBR") -> "MBR":
        """The smallest rectangle covering both inputs."""
        return MBR(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    @staticmethod
    def of_points(xs, ys) -> "MBR":
        """Bounding rectangle of coordinate sequences (non-empty)."""
        xs = list(xs)
        ys = list(ys)
        if not xs:
            raise ValueError("cannot bound an empty point collection")
        return MBR(min(xs), min(ys), max(xs), max(ys))
