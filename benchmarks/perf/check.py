"""The correctness gate: every op's output is checked against a KD-tree oracle.

The oracle shares no code with the program under test: it is
``scipy.spatial.cKDTree.sparse_distance_matrix`` over the generated
arrays.  It runs in a short-lived child process so that its memory does
not count towards the peak RSS the benchmark reports for the program.
"""

from __future__ import annotations

import multiprocessing
import re
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np

_MIX = np.uint64(0x9E3779B97F4A7C15)


def pair_keys(r_ids, s_ids, stride: int) -> np.ndarray:
    """One int64 per pair; unique per (r, s) while ``s < stride``."""
    return np.asarray(r_ids, dtype=np.int64) * np.int64(stride) + np.asarray(
        s_ids, dtype=np.int64
    )


def digest(keys: np.ndarray) -> int:
    """Order-independent 64-bit digest of a multiset of pair keys."""
    with np.errstate(over="ignore"):
        h = keys.astype(np.uint64) * _MIX
        h ^= h >> np.uint64(29)
        h *= _MIX
        return int(h.sum(dtype=np.uint64))


def oracle_keys(r_xs, r_ys, r_ids, s_xs, s_ys, s_ids, eps: float, stride: int) -> np.ndarray:
    """Sorted keys of every (r, s) pair within ``eps``, by KD-trees."""
    from scipy.spatial import cKDTree

    tree_r = cKDTree(np.column_stack((r_xs, r_ys)))
    tree_s = cKDTree(np.column_stack((s_xs, s_ys)))
    hits = tree_r.sparse_distance_matrix(tree_s, eps, output_type="ndarray")
    keys = pair_keys(r_ids[hits["i"]], s_ids[hits["j"]], stride)
    keys.sort()
    return keys


class Checker:
    """Counts ops attempted and failed against one workload's true pair set."""

    def __init__(self, r, s, eps: float):
        self.stride = int(s.ids.max()) + 1
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            self.keys = pool.submit(
                oracle_keys, r.xs, r.ys, r.ids, s.xs, s.ys, s.ids, eps, self.stride
            ).result()
        self.count = int(len(self.keys))
        self.digest = digest(self.keys)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._lock = threading.Lock()  # the mixed phase checks from two client threads

    def _record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < 20:
                    self.notes.append(what)
        return ok

    def full(self, r_ids, s_ids, what: str = "first op") -> bool:
        """Set equality with the oracle and duplicate-freeness."""
        keys = np.sort(pair_keys(r_ids, s_ids, self.stride))
        dup_free = len(keys) < 2 or bool((keys[1:] != keys[:-1]).all())
        ok = dup_free and len(keys) == self.count and bool((keys == self.keys).all())
        return self._record(ok, f"{what}: pair set differs from the oracle ({len(keys)} vs {self.count} pairs, dup_free={dup_free})")

    def pairs(self, r_ids, s_ids, what: str = "op") -> bool:
        """Pair count and order-independent digest."""
        ok = len(r_ids) == self.count and digest(pair_keys(r_ids, s_ids, self.stride)) == self.digest
        return self._record(ok, f"{what}: count/digest mismatch ({len(r_ids)} vs {self.count} pairs)")

    def count_only(self, results, what: str = "op") -> bool:
        ok = results is not None and int(results) == self.count
        return self._record(ok, f"{what}: reported {results} results, oracle has {self.count}")

    def sample(self, results, pairs, what: str = "served op") -> bool:
        """A served response: its count, and its returned pairs as a subset."""
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        keys = pair_keys(arr[:, 0], arr[:, 1], self.stride)
        pos = np.searchsorted(self.keys, keys)
        pos[pos >= self.count] = 0
        ok = (
            int(results) == self.count
            and len(np.unique(keys)) == len(keys)
            and bool((self.keys[pos] == keys).all() if self.count else len(keys) == 0)
        )
        return self._record(ok, f"{what}: count {results} vs {self.count}, or returned pairs not in the oracle set")

    def error(self, what: str) -> None:
        """An op that raised, was refused or timed out."""
        self._record(False, what)


_CLI_RESULTS = re.compile(r"results=\s*(\d+)")


def cli_result_count(stdout: str):
    """The result count a ``repro join`` run printed, or ``None``."""
    m = _CLI_RESULTS.search(stdout)
    return int(m.group(1)) if m else None
