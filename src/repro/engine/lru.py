"""The one LRU cache: thread-safe, budgeted in bytes or in entries.

The serving layer keeps three caches -- built artifacts, finished
results, chosen plans -- that differ in what they hold and how they are
budgeted, not in how they evict.  Each is this class with its own budget
(see ``docs/SERVING.md``).  The shuffle block store's memory tier is
*not* one: its eviction is a demotion to disk tied to the block's
metadata, not a cache drop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["LRUCache"]


class LRUCache:
    """Least-recently-used entries leave once a budget is exceeded.

    ``limit_bytes`` bounds the summed ``nbytes`` the caller declares with
    each :meth:`put`; ``limit_entries`` bounds the count; ``None`` leaves
    that dimension unbounded.  With ``keep_newest`` the entry just
    inserted is never evicted, so a single value larger than the whole
    budget is still usable once; without it such a value is dropped at
    once and the next lookup misses.
    """

    def __init__(
        self,
        limit_bytes: int | None = None,
        limit_entries: int | None = None,
        keep_newest: bool = False,
    ):
        if limit_bytes is not None and limit_bytes < 0:
            raise ValueError(f"limit_bytes must be >= 0, got {limit_bytes}")
        if limit_entries is not None and limit_entries < 1:
            raise ValueError(f"limit_entries must be >= 1, got {limit_entries}")
        self.limit_bytes = limit_bytes
        self.limit_entries = limit_entries
        self._floor = 1 if keep_newest else 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[object, tuple[object, int]] = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """The cached value, or ``None`` (counts a hit or a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def contains(self, key) -> bool:
        """Whether ``key`` is resident (no LRU touch, no counters)."""
        with self._lock:
            return key in self._entries

    def put(self, key, value, nbytes: int = 0) -> None:
        """Insert (or refresh) an entry of ``nbytes``, then evict to budget."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self.bytes += nbytes
            while len(self._entries) > self._floor and (
                (self.limit_bytes is not None and self.bytes > self.limit_bytes)
                or (
                    self.limit_entries is not None
                    and len(self._entries) > self.limit_entries
                )
            ):
                _key, (_value, evicted) = self._entries.popitem(last=False)
                self.bytes -= evicted
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.bytes,
                "limit_bytes": self.limit_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
