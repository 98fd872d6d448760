"""The one stable integer sort under the shuffle and the local kernel."""

from __future__ import annotations

import numpy as np


def stable_argsort(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` for the stable ascending sort of ``keys``.

    ``keys`` are integers in ``[0, bound)``.  ``key << bits | position``
    is packed into one int64 and sorted by value, which numpy vectorises;
    ``argsort(kind="stable")`` is a scalar merge sort, 4-7x slower, and
    is only the fall-back when key x position does not fit in 62 bits.
    """
    n = len(keys)
    bits = n.bit_length()
    if int(bound) << bits > 1 << 62:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = keys.astype(np.int64) << bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    return order, packed


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal keys -- what
    ``np.unique(..., return_index=True)`` re-sorts to find."""
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(first)
