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


def registered_kernels() -> dict[str, Callable]:
    """A snapshot of the registry (name -> kernel)."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# batched variants: one call per worker *task* instead of one per cell
# ----------------------------------------------------------------------
# A batch kernel joins every cell of a task in a single vectorized pass::
#
#     batch_kernel(r_ids, r_xs, r_ys, r_offsets,
#                  s_ids, s_xs, s_ys, s_offsets, eps, origins)
#         -> (pair_r: list[ndarray], pair_s: list[ndarray],
#             candidates: ndarray) | None
#
# The column arrays are the task's cells concatenated back to back;
# ``*_offsets`` (len C+1) delimit each cell's segment and ``origins`` is a
# ``(C, 2)`` float64 array or ``None``.  The contract is *bit-exactness*:
# entry ``i`` of each output must equal the per-cell kernel applied to
# segment ``i`` -- same pairs, same order, same candidate count.  A batch
# kernel may return ``None`` to decline (e.g. composite keys would
# overflow); the executor then falls back to the per-cell loop.
#
# Batched execution is only used when fine-grained checkpointing is off:
# per-cell checkpoints need per-cell completion points, which a batched
# pass by design does not have.

_BATCH_REGISTRY: dict[str, Callable] = {}


def register_batch_kernel(name: str, kernel: Callable) -> Callable:
    """Register the batched variant of kernel ``name``."""
    _BATCH_REGISTRY[name] = kernel
    return kernel


def get_batch_kernel(name: str) -> Callable | None:
    """The batched variant of ``name``, or ``None`` if it has none."""
    return _BATCH_REGISTRY.get(name)
