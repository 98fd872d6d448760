"""The dataset registry: point sets kept resident across queries.

A one-shot run loads (or generates) its inputs, joins, and exits.  The
server instead *registers* datasets once -- by paper codename (``R1``,
``R2``, ``S1``, ``S2``), by ``id,x,y`` text file, or programmatically as
an in-memory :class:`~repro.data.pointset.PointSet` -- and every later
query references them by name.  Each entry carries its content
fingerprint (:func:`~repro.data.pointset.dataset_fingerprint`),
the anchor of every artifact- and result-cache key.

Re-registering a name with byte-identical content is an idempotent
no-op; re-registering with *different* content requires ``replace=True``
(silently swapping data under a name that live clients key on is how a
cache serves stale joins).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.data.pointset import PointSet, dataset_fingerprint

__all__ = ["DatasetRegistry", "RegisteredDataset"]

#: Paper dataset codenames the registry can materialize on demand.
CODENAMES = ("R1", "R2", "S1", "S2")


@dataclass
class RegisteredDataset:
    """One resident dataset: the points plus registry bookkeeping."""

    name: str
    points: PointSet
    fingerprint: str
    source: str  # codename, file path, or "inline"
    registered_at: float
    nbytes: int

    def describe(self) -> dict:
        return {
            "name": self.name,
            "n": len(self.points),
            "fingerprint": self.fingerprint,
            "source": self.source,
            "payload_bytes": self.points.payload_bytes,
            "nbytes": self.nbytes,
        }


class DatasetRegistry:
    """Named, fingerprinted point sets shared by every query."""

    def __init__(self):
        self._lock = threading.Lock()
        self._datasets: dict[str, RegisteredDataset] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        points: PointSet,
        source: str = "inline",
        replace: bool = False,
    ) -> RegisteredDataset:
        """Make ``points`` resident under ``name``; returns the entry."""
        if not name:
            raise ValueError("dataset name must be non-empty")
        fingerprint = dataset_fingerprint(points)
        entry = RegisteredDataset(
            name=name,
            points=points,
            fingerprint=fingerprint,
            source=source,
            registered_at=time.time(),
            nbytes=int(
                points.ids.nbytes + points.xs.nbytes + points.ys.nbytes
            ),
        )
        with self._lock:
            existing = self._datasets.get(name)
            if existing is not None and not replace:
                if existing.fingerprint == fingerprint:
                    return existing  # idempotent re-registration
                raise ValueError(
                    f"dataset {name!r} is already registered with different "
                    f"content (fingerprint {existing.fingerprint} != "
                    f"{fingerprint}); pass replace=True to swap it"
                )
            self._datasets[name] = entry
        return entry

    def register_spec(
        self,
        name: str,
        spec: str,
        base_n: int | None = None,
        payload_bytes: int = 0,
        replace: bool = False,
    ) -> RegisteredDataset:
        """Register from a codename (R1/R2/S1/S2) or an ``id,x,y`` file."""
        if spec in CODENAMES:
            from repro.data.datasets import DEFAULT_BASE_N, load_dataset

            points = load_dataset(
                spec,
                base_n=base_n if base_n is not None else DEFAULT_BASE_N,
                payload_bytes=payload_bytes,
            )
            source = spec
        else:
            from repro.data.io import read_points_text

            points = read_points_text(
                spec, payload_bytes=payload_bytes, name=name
            )
            source = spec
        return self.register(name, points, source=source, replace=replace)

    # ------------------------------------------------------------------
    def get(self, name: str) -> RegisteredDataset:
        with self._lock:
            entry = self._datasets.get(name)
        if entry is None:
            raise KeyError(
                f"dataset {name!r} is not registered "
                f"(registered: {', '.join(sorted(self.names())) or 'none'})"
            )
        return entry

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._datasets)

    def describe(self) -> list[dict]:
        with self._lock:
            entries = list(self._datasets.values())
        return [e.describe() for e in sorted(entries, key=lambda e: e.name)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)
