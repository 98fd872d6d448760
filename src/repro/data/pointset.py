"""Columnar point collections.

A :class:`PointSet` stores one join input as parallel numpy arrays --
the layout every hot path in the library (assignment, local joins,
statistics) operates on directly.  The per-tuple payload size models the
non-spatial attributes whose effect the paper studies in Figs. 16-18.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Iterator

import numpy as np

from repro.geometry.mbr import MBR


class PointSet:
    """A named collection of 2-d points with a uniform payload size."""

    def __init__(
        self,
        xs,
        ys,
        ids=None,
        payload_bytes: int = 0,
        name: str = "",
    ):
        self.xs = np.ascontiguousarray(xs, dtype=np.float64)
        self.ys = np.ascontiguousarray(ys, dtype=np.float64)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if len(self.xs) and not (
            np.isfinite(self.xs).all() and np.isfinite(self.ys).all()
        ):
            raise ValueError("coordinates must be finite (no NaN/inf)")
        if ids is None:
            ids = np.arange(len(self.xs), dtype=np.int64)
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        if self.ids.shape != self.xs.shape:
            raise ValueError("ids must parallel the coordinate arrays")
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        self.payload_bytes = int(payload_bytes)
        self.name = name

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.xs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PointSet({self.name or 'unnamed'}, n={len(self)}, payload={self.payload_bytes}B)"

    @property
    def record_bytes(self) -> int:
        """Modelled serialized size of one tuple (id + coords + payload)."""
        return 24 + self.payload_bytes

    def mbr(self) -> MBR:
        """Bounding rectangle of the points (non-empty set required)."""
        if len(self) == 0:
            raise ValueError(f"point set {self.name!r} is empty")
        return MBR(
            float(self.xs.min()),
            float(self.ys.min()),
            float(self.xs.max()),
            float(self.ys.max()),
        )

    # ------------------------------------------------------------------
    def subset(self, index: np.ndarray, name: str | None = None) -> "PointSet":
        """A new set holding the rows selected by an index or mask array."""
        return PointSet(
            self.xs[index],
            self.ys[index],
            self.ids[index],
            self.payload_bytes,
            name if name is not None else self.name,
        )

    def with_payload(self, payload_bytes: int) -> "PointSet":
        """The same points with a different modelled payload size."""
        return PointSet(self.xs, self.ys, self.ids, payload_bytes, self.name)

    def tile(self, times: int) -> "PointSet":
        """Scale the set up by repeating it with small deterministic jitter.

        Used by the data-size scalability experiment (Fig. 13): each copy
        keeps the original distribution but perturbs coordinates so joins
        do not degenerate into exact-duplicate matching.
        """
        if times < 1:
            raise ValueError("times must be >= 1")
        if times == 1:
            return self
        # a stable digest: ``hash`` of a str is salted per process
        rng = np.random.default_rng(zlib.crc32(f"{self.name}:{times}".encode()))
        box = self.mbr()
        jitter = 1e-4 * max(box.width, box.height)
        xs, ys = [self.xs], [self.ys]
        for _ in range(times - 1):
            xs.append(
                np.clip(self.xs + rng.normal(0, jitter, len(self)), box.xmin, box.xmax)
            )
            ys.append(
                np.clip(self.ys + rng.normal(0, jitter, len(self)), box.ymin, box.ymax)
            )
        n = len(self) * times
        return PointSet(
            np.concatenate(xs),
            np.concatenate(ys),
            np.arange(n, dtype=np.int64),
            self.payload_bytes,
            f"{self.name}x{times}",
        )

    # ------------------------------------------------------------------
    def iter_triples(self) -> Iterator[tuple[int, float, float]]:
        """Iterate ``(pid, x, y)`` rows (test/oracle interface)."""
        for i in range(len(self)):
            yield (int(self.ids[i]), float(self.xs[i]), float(self.ys[i]))


def joint_mbr(r: PointSet, s: PointSet) -> MBR:
    """The bounding rectangle of both join inputs.  An empty side has no
    extent and meets no point, so it adds nothing; two empty sides give
    the origin."""
    boxes = [side.mbr() for side in (r, s) if len(side)] or [MBR(0, 0, 0, 0)]
    return boxes[0].union(boxes[-1])


def dataset_fingerprint(points) -> str:
    """A content hash of a point set: ids, coordinates, cardinality and
    payload size (the first 16 hex digits of their sha256).

    Two loads of byte-identical data get one fingerprint however they
    were read, so the server shares their cached artifacts and the
    planner names them alike.
    """
    digest = hashlib.sha256()
    digest.update(len(points.xs).to_bytes(8, "little"))
    digest.update(int(points.payload_bytes).to_bytes(8, "little"))
    digest.update(points.ids.tobytes())
    digest.update(points.xs.tobytes())
    digest.update(points.ys.tobytes())
    return digest.hexdigest()[:16]
