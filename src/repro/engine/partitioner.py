"""Partitioners: mapping shuffle keys (grid cells) to reduce partitions.

The paper's baselines use Spark's default hash partitioner; the proposed
algorithm optionally replaces it with an explicit assignment computed by
the LPT heuristic (Sect. 6.2).  Both are modelled here behind a common
protocol.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np


class Partitioner(Protocol):
    """Maps integer keys to reduce-partition indices."""

    num_partitions: int

    def of(self, key: int) -> int:
        """Partition index for one key."""
        ...

    def of_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized partition lookup."""
        ...


class HashPartitioner:
    """Spark-style hash partitioning: ``key mod P`` for integer keys."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions

    def of(self, key: int) -> int:
        return hash(key) % self.num_partitions

    def of_array(self, keys: np.ndarray) -> np.ndarray:
        # For non-negative ints Python's hash is the identity, so the
        # vectorized path matches `of`.
        return np.asarray(keys) % self.num_partitions


class ExplicitPartitioner:
    """A partitioner backed by a precomputed key -> partition table.

    Keys absent from the table fall back to hash partitioning, so cells
    that were empty in the sample still have a home.  The table is
    compiled once into a dense array over ``[0, max key]`` with the
    fall-back already filled in, so a lookup is one gather.
    """

    def __init__(self, assignment: dict[int, int], num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        bad = [p for p in assignment.values() if not 0 <= p < num_partitions]
        if bad:
            raise ValueError(f"assignment targets out of range: {bad[:3]}")
        if min(assignment, default=0) < 0:
            raise ValueError("assignment keys must be non-negative")
        self.assignment = dict(assignment)
        self.num_partitions = num_partitions
        keys = np.fromiter(self.assignment, dtype=np.int64, count=len(assignment))
        self._table = np.arange(int(keys.max(initial=-1)) + 1) % num_partitions
        self._table[keys] = np.fromiter(
            self.assignment.values(), dtype=np.int64, count=len(assignment)
        )

    def of(self, key: int) -> int:
        return self.assignment.get(key, hash(key) % self.num_partitions)

    def of_array(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        inside = (keys >= 0) & (keys < len(self._table))
        if inside.all():
            return self._table[keys]
        out = keys % self.num_partitions
        out[inside] = self._table[keys[inside]]
        return out
