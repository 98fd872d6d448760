"""Engine-owned registry of local join kernels.

The executor runs kernels by *name* so execution plans stay picklable and
process-pool children can resolve the function locally.  The registry
lives in the engine layer -- the layer that consumes it -- while the
kernel implementations live wherever they like (the point kernels in
:mod:`repro.joins.local` register themselves on import).  This keeps the
import DAG acyclic: ``repro.engine`` never imports ``repro.joins``
(enforced by ``tests/test_layering.py``).

A kernel is a callable::

    kernel(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, eps, *, origin=None)
        -> (r_ids, s_ids, candidates)

operating on parallel numpy arrays; ``candidates`` is the number of
candidate pairs it examined (drives the modelled join cost).

Process-pool note: the pool context prefers ``fork`` (see
``executor._pool_context``), so children inherit the parent's registry.
A ``spawn`` child would resolve names against a registry populated by
whatever modules *it* imports -- register kernels at import time of a
module the plan's consumers also import.
"""

from __future__ import annotations

from typing import Callable

_REGISTRY: dict[str, Callable] = {}


def register_kernel(name: str, kernel: Callable) -> Callable:
    """Register ``kernel`` under ``name`` (later registrations win)."""
    _REGISTRY[name] = kernel
    return kernel


def get_kernel(name: str) -> Callable:
    """Resolve a registered kernel; raises ``KeyError`` with the choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown local kernel {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def s_probes(r_counts, s_counts):
    """Per cell: does S probe?  The role rule of ``grid_hash``, which
    builds on the input with more records in a cell and probes with the
    other, R on a tie.  The plan orders each task's cells by it
    (:func:`~repro.engine.executor.build_execution_plan`)."""
    return r_counts > s_counts


# ----------------------------------------------------------------------
# batched variants: one probe + one expand per worker *task*, not per cell
# ----------------------------------------------------------------------
# A batch kernel is a pair of callables.  ``probe`` reads every cell of a
# task in a single vectorized pass and writes no result::
#
#     probe(r_ids, r_xs, r_ys, r_offsets,
#           s_ids, s_xs, s_ys, s_offsets, eps, origins) -> state | None
#
# The column arrays are the task's cells back to back -- a slice of the
# execution plan; ``*_offsets`` (len C+1) delimit each cell's segment and
# ``origins`` is a ``(C, 2)`` float64 array or ``None``.  ``state.total``
# bounds the pairs the task can produce and ``state.candidates`` (len C)
# is the per-cell candidate count.  ``expand`` then writes the pairs into
# columns the *caller* owns::
#
#     expand(state, out_r, out_s, offset) -> (end, bounds)
#
# from ``offset`` onwards (``out`` has room for ``state.total`` entries
# there; nothing past ``end`` is touched), cell ``i``'s pairs being
# ``out[bounds[i]:bounds[i + 1]]``.  The serial tier passes the job-wide
# result columns, so a pair is written once, where ``collect`` hands it
# out; a pooled task passes columns of its own.  Expanding a state twice
# writes the same pairs twice (a retried task overwrites).
#
# The contract is *bit-exactness*: cell ``i``'s slice must equal the
# per-cell kernel applied to segment ``i`` -- same pairs, same order, same
# candidate count.  ``probe`` may return ``None`` to decline (e.g.
# composite keys would overflow); the executor then falls back to the
# per-cell loop.
#
# Batched execution is only used when fine-grained checkpointing is off:
# per-cell checkpoints need per-cell completion points, which a batched
# pass by design does not have.

_BATCH_REGISTRY: dict[str, tuple[Callable, Callable]] = {}


def register_batch_kernel(name: str, probe: Callable, expand: Callable) -> None:
    """Register the batched (probe, expand) variant of kernel ``name``."""
    _BATCH_REGISTRY[name] = (probe, expand)


def get_batch_kernel(name: str) -> tuple[Callable, Callable] | None:
    """The ``(probe, expand)`` pair of ``name``, or ``None`` if it has none."""
    return _BATCH_REGISTRY.get(name)
