"""Recycled memory for the job-wide result columns.

A column is sized for every *candidate* pair: tens of megabytes on a
dense join, above the 32 MiB ceiling of glibc's mmap threshold, so an
``np.empty`` maps it afresh for every join, the kernel zeroes each page
the hits touch and the caller's drop unmaps it.  :func:`lease` hands out
views of owning ``uint8`` slabs and takes a slab back when nothing
references it.  numpy collapses the ``.base`` of every derived view -- a
slice of a slice, a ``view(dtype)``, the array behind a ``memoryview`` --
to the array owning the memory, so a slab is free exactly when the
pool's list holds the only reference to it: liveness is the slab's
reference count, read under the lock.  Nothing outside this module can
name an idle slab, so idle is a stable state.  See ``docs/EXECUTION.md``,
"Result path".
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np

#: Bytes of slabs (leased and idle) the pool keeps.  A request above it
#: is a plain ``np.empty``; one that would take the pool past it is too.
RETAIN_BYTES = 256 << 20
#: Slab sizes are multiples of this, so near-equal requests share a slab;
#: a request below it is malloc's business (it recycles those already,
#: and a small result must not pin a large slab).
_GRAIN = 1 << 20

_lock = threading.Lock()
_slabs: list[np.ndarray] = []


def _refcounts(slabs: list[np.ndarray]) -> list[int]:
    return [sys.getrefcount(slab) for slab in slabs]


#: What :func:`_refcounts` reads for a slab only its list references.
_IDLE = _refcounts([np.empty(0, dtype=np.uint8)])[0]


def lease(n: int, dtype=np.int64) -> np.ndarray:
    """An uninitialised ``(n,)`` array of ``dtype``, from a recycled slab.

    It, and anything derived from it, stays valid for as long as it is
    referenced; the slab is handed out again only once nothing is.
    """
    dtype = np.dtype(dtype)
    nbytes = n * dtype.itemsize
    if not _GRAIN <= nbytes <= RETAIN_BYTES:
        return np.empty(n, dtype=dtype)
    with _lock:
        idle = [count == _IDLE for count in _refcounts(_slabs)]
        fits = [s for s, free in zip(_slabs, idle) if free and s.nbytes >= nbytes]
        if fits:
            slab = min(fits, key=len)
        else:
            # a miss: every idle slab was too small for it.  They go, so
            # the pool follows the working size instead of accumulating
            _slabs[:] = [s for s, free in zip(_slabs, idle) if not free]
            slab = np.empty(-(-nbytes // _GRAIN) * _GRAIN, dtype=np.uint8)
            if sum(s.nbytes for s in _slabs) + slab.nbytes <= RETAIN_BYTES:
                _slabs.append(slab)
        return slab[:nbytes].view(dtype)


def _after_fork_in_child() -> None:
    # a forked pool worker's copies of the parent's slabs are the parent's
    # results, and the lock may have been held: it starts with neither
    global _lock
    _lock = threading.Lock()
    _slabs.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
