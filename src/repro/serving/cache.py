"""The serving layer's artifact cache: built join artifacts, reused.

A one-shot CLI run rebuilds the grid, the Bernoulli samples, the
agreement graph and the LPT placement for every invocation.  A resident
server amortizes that away: the *artifact cache* keeps the output of the
pipeline's build/partition stage -- grid, statistics (the samples'
digest), replication assigner (which embeds the agreement graph for the
adaptive methods) and the cell -> worker array -- keyed by the dataset
fingerprints and every configuration field that feeds the build.

The cache is the byte-budgeted :class:`~repro.engine.lru.LRUCache`:
entry sizes are estimated by walking the stored objects for numpy arrays
(:func:`estimate_nbytes`), and the least-recently-used entries are
evicted once the budget is exceeded.
Hit/miss/eviction counters feed the server's ``stats`` endpoint and the
serving benchmarks.

Everything cached here is *read-only* at query time (assigners are pure
functions over their arrays, placements are plain arrays), so one entry may be
shared by any number of concurrent queries.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.engine.lru import LRUCache

__all__ = ["ArtifactCache", "estimate_nbytes"]

#: Recursion guard for :func:`estimate_nbytes` -- artifact bundles are
#: shallow (grid -> arrays, graph -> dicts of arrays), so a deep walk
#: only ever means a reference cycle slipped past the seen-set.
_MAX_DEPTH = 12


def estimate_nbytes(obj, _seen: set[int] | None = None, _depth: int = 0) -> int:
    """Rough resident size of an artifact bundle, in bytes.

    Counts every distinct numpy array once (``.nbytes``) and falls back
    to ``sys.getsizeof`` for scalars and containers.  The estimate only
    needs to be *proportional* to the real footprint -- it drives LRU
    eviction, not allocation.
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen or _depth > _MAX_DEPTH:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    total = 0
    try:
        total += sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic objects
        pass
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += estimate_nbytes(key, _seen, _depth + 1)
            total += estimate_nbytes(value, _seen, _depth + 1)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += estimate_nbytes(item, _seen, _depth + 1)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            total += estimate_nbytes(value, _seen, _depth + 1)
    return total


class ArtifactCache(LRUCache):
    """The byte-budgeted LRU over built join artifacts.

    Keys are opaque hashable tuples (see
    :func:`repro.serving.fingerprint.grid_partition_key`); values are
    whatever bundle the build stage produced.  ``memory_limit_bytes``
    bounds the *estimated* resident size; ``None`` means unbounded.  The
    entry just inserted is never evicted: a single bundle larger than the
    whole budget must still be usable once.
    """

    def __init__(self, memory_limit_bytes: int | None = None):
        super().__init__(limit_bytes=memory_limit_bytes, keep_newest=True)

    def put(self, key, value) -> None:
        """Insert (or refresh) an entry, sized by :func:`estimate_nbytes`."""
        super().put(key, value, estimate_nbytes(value))
