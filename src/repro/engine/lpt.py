"""LPT (Longest Processing Time) assignment of cells to partitions.

The optimization problem of Sect. 6.2 -- minimize the maximum join cost
per worker -- is the NP-hard multiprocessor scheduling problem; the paper
uses the classic LPT greedy: process cells in descending estimated cost
and always give the next cell to the least-loaded partition.  The cost of
a cell is the estimated number of join-result candidates ``|R_i| * |S_i|``
derived from the sample.
"""

from __future__ import annotations

import heapq

import numpy as np


def lpt_assignment(costs: np.ndarray, num_partitions: int) -> np.ndarray:
    """Greedy LPT placement of every index of ``costs`` on ``num_partitions``.

    Returns an int64 array: the partition of each index.  Deterministic:
    ties in cost are broken by index, ties in load by partition index
    (via the heap).
    """
    if num_partitions <= 0:
        raise ValueError("need at least one partition")
    costs = np.asarray(costs, dtype=np.float64)
    order = np.argsort(-costs, kind="stable")
    heap = [(0.0, p) for p in range(num_partitions)]
    parts = []
    for cost in costs[order].tolist():
        load, part = heap[0]
        parts.append(part)
        heapq.heapreplace(heap, (load + cost, part))
    out = np.empty(len(costs), dtype=np.int64)
    out[order] = parts
    return out
