"""Pluggable execution backends for the per-cell local joins.

The simulated cluster models *where* work happens and how long it would
take on the paper's Spark deployment; this module makes the local-join
phase actually run in parallel on the host so the modelled makespan can
be compared against a measured one.  Three backends share one code path:

* ``serial``    -- the reference: one OS thread, cells run in plan order;
* ``threads``   -- a thread pool; the vectorized kernels spend most of
  their time in numpy, which releases the GIL;
* ``processes`` -- a process pool; the per-cell (R, S) array bundles are
  published once through ``multiprocessing.shared_memory`` (one
  contiguous block per side plus a per-cell offset table) so workers
  attach zero-copy instead of unpickling per-cell payloads;
* ``cluster``   -- a real shared-nothing process cluster on localhost:
  long-lived worker daemons over sockets, heartbeat failure detection,
  and a shuffle data plane serving ``(side, src, dst)`` blocks to remote
  fetches (see :mod:`repro.engine.cluster_backend` and
  ``docs/CLUSTER.md``).  Degrades to ``processes`` when daemons cannot
  start.

Cells are grouped by their simulated worker (the LPT or hash assignment
from the driver), one task per simulated worker, so the measured
wall-clock per worker lines up with the modelled per-worker clocks in
:class:`~repro.engine.cluster.SimCluster`.  Plan positions are ordered
*task-major* -- ascending simulated worker, cells ascending inside a
task (Spark's partition order) -- so a task is a contiguous slice of the
plan, and results are stitched by plan position into one column pair:
the output is bit-identical across backends.

Result pairs are written once.  The ``serial`` tier probes every task,
leases the job's column pair (:mod:`repro.engine.slabs`) at the summed
candidate total and lets each task expand its hits at the running
offset, so the report's columns *are* the memory the kernel wrote.
Pooled tiers and the per-cell path return one block per task (a salvaged
checkpoint one per cell) and the blocks are copied into the columns once.
With ``collect_pairs=False`` a task's pairs are dropped on absorb and the
report carries counts only (see ``docs/EXECUTION.md``, "Result path").

Execution is fault tolerant.  A :class:`RetryPolicy` governs what
happens when a task fails -- whether the failure is injected by a
:class:`~repro.engine.faults.FaultPlan` or real (a crashed pool worker,
a kernel exception):

* failed tasks are retried with exponential backoff up to a retry
  budget;
* tasks running past ``task_timeout`` are treated as stragglers and a
  speculative copy is launched -- the first finisher wins, the loser is
  cancelled or its result discarded;
* a broken process pool (a worker died) is detected, the pool is
  rebuilt, and the lost tasks are re-executed;
* when a backend cannot finish a task inside its budget, execution
  degrades ``processes`` -> ``threads`` -> ``serial`` before giving up
  with :class:`~repro.engine.faults.RetryBudgetExhausted`.

Recovery is *fine-grained* when a
:class:`~repro.engine.blockstore.CheckpointManager` is supplied: every
cell's kernel output is checkpointed the moment it completes, injected
kill/kernel faults fire mid-task (after half the attempt's cells) instead
of up front, and each re-submission first **salvages** checkpointed cells
-- absorbing their snapshotted results -- and re-runs only the remainder.
The report tracks, per plan position, how often it was re-submitted
(lineage recompute, charged to the modelled clocks) and how often a
checkpoint spared it (recovery savings on both clocks).

Recovery never changes the answer: results are stitched by plan
position regardless of which attempt produced them -- recomputed or
salvaged -- so a faulted run is bit-identical to a fault-free one.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.attempts import AttemptLedger
from repro.engine.faults import (
    FaultEvent,
    FaultPlan,
    InjectedKernelError,
    InjectedWorkerKill,
    TaskFailure,
)
from repro.engine.slabs import lease
from repro.engine.sorting import stable_argsort
from repro.engine.telemetry import MetricsRegistry, Tracer, get_logger

from collections.abc import Sequence
from typing import Mapping

#: Execution backends accepted by :func:`execute_plan`.
BACKENDS = ("serial", "threads", "processes", "cluster")

#: Where each backend falls back to when it cannot finish a task.
_FALLBACK = {
    "cluster": "processes",
    "processes": "threads",
    "threads": "serial",
    "serial": None,
}

#: Scheduler wake-up interval (seconds) while a transport waits on pool
#: futures or daemon events.
_TICK = 0.02

_EMPTY = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# shared long-lived pools (the serving layer's resident executors)
# ----------------------------------------------------------------------
# A one-shot run pays the thread/process pool's startup on every join;
# a resident server should not.  When shared pools are enabled, the
# scheduler checks this registry -- keyed by (backend, os_workers) --
# before building a pool, and leaves resident pools running when the
# run finishes.  A *broken* pool (a worker process died) is always
# evicted and truly shut down: the rebuilt replacement re-enters the
# registry, so chaos recovery works identically in shared mode.
# Disabled by default: one-shot runs keep their per-run pool lifetime.
import threading as _threading

_shared_pools_enabled = False
_shared_pools: dict[tuple, object] = {}
_shared_pools_lock = _threading.Lock()
_shared_pool_counters = {
    "acquires": 0,
    "hits": 0,
    "created": 0,
    "discarded": 0,
}


def enable_shared_pools() -> None:
    """Keep thread/process pools resident across runs (server mode).

    Meant for runs without speculation or fault injection (the serving
    layer blocks both): those runs are fully drained when they return,
    so nothing of one run is still executing when the next reuses the
    pool.
    """
    global _shared_pools_enabled
    with _shared_pools_lock:
        _shared_pools_enabled = True


def disable_shared_pools() -> None:
    """Shut down every resident pool and return to per-run lifetimes."""
    global _shared_pools_enabled
    with _shared_pools_lock:
        _shared_pools_enabled = False
        pools = list(_shared_pools.values())
        _shared_pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def shared_pool_stats() -> dict:
    """Registry counters plus the resident pool keys (stats endpoint)."""
    with _shared_pools_lock:
        return {
            "enabled": _shared_pools_enabled,
            "resident": [list(k) for k in sorted(_shared_pools)],
            **_shared_pool_counters,
        }


def _acquire_pool(backend: str, os_workers, factory):
    """A pool for one run: resident when shared mode is on, else fresh.

    Returns ``(pool, shared)`` -- ``shared`` tells the caller whether
    the run's cleanup owns the pool (``False``) or must leave it running
    (``True``).
    """
    with _shared_pools_lock:
        if not _shared_pools_enabled:
            return factory(), False
        _shared_pool_counters["acquires"] += 1
        key = (backend, os_workers)
        pool = _shared_pools.get(key)
        if pool is not None:
            _shared_pool_counters["hits"] += 1
            return pool, True
    # build outside the lock (process-pool startup is slow), then
    # publish; a concurrent builder may win the race -- keep the winner
    pool = factory()
    with _shared_pools_lock:
        if not _shared_pools_enabled:
            return pool, False
        existing = _shared_pools.get(key)
        if existing is not None:
            loser = pool
            pool = existing
            _shared_pool_counters["hits"] += 1
        else:
            loser = None
            _shared_pools[key] = pool
            _shared_pool_counters["created"] += 1
    if loser is not None:
        loser.shutdown(wait=False)
    return pool, True


def _discard_pool(backend: str, os_workers, pool, shared: bool) -> None:
    """Drop a *broken* pool: evict it from the registry and kill it."""
    if shared:
        with _shared_pools_lock:
            key = (backend, os_workers)
            if _shared_pools.get(key) is pool:
                del _shared_pools[key]
            _shared_pool_counters["discarded"] += 1
    pool.shutdown(wait=False)


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor recovers from task failures.

    ``max_retries`` is a *per-task, per-backend* budget: a task may be
    re-run up to ``max_retries`` times on the backend it started on
    before that backend declares it unrecoverable; with ``degrade``
    enabled the task then moves down the fallback chain (processes ->
    threads -> serial), where the budget applies afresh.  Attempt
    *numbers* keep incrementing across backends, so a deterministic
    fault plan never re-fires a fault the task already survived.
    """

    max_retries: int = 2
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_cap: float = 0.25
    #: Straggler threshold: a running task older than this gets a
    #: speculative copy (``None`` disables straggler detection).
    task_timeout: float | None = None
    degrade: bool = True

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")

    def backoff(self, retry_index: int) -> float:
        """Seconds to wait before retry number ``retry_index`` (0-based)."""
        if self.backoff_base <= 0:
            return 0.0
        return min(
            self.backoff_cap, self.backoff_base * self.backoff_factor**retry_index
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """The local-join phase as flat arrays: one entry per joinable cell.

    Positions are task-major: ordered by ``(worker, cell)``, so a
    simulated worker's task is a contiguous run of positions.  Each
    side's points are gathered into contiguous blocks in position order;
    ``r_offsets[i]:r_offsets[i + 1]`` slices position ``i``'s R points
    (likewise for S) -- a task's inputs are slices too.  ``origins``
    optionally carries each cell's eps-grid anchor for
    :func:`~repro.joins.local.grid_hash_join`.
    """

    cells: np.ndarray  # cell ids, ascending inside each worker's run, int64
    workers: np.ndarray  # simulated worker per cell, ascending, int64
    r_ids: np.ndarray
    r_xs: np.ndarray
    r_ys: np.ndarray
    r_offsets: np.ndarray  # int64, len(cells) + 1
    s_ids: np.ndarray
    s_xs: np.ndarray
    s_ys: np.ndarray
    s_offsets: np.ndarray
    origins: np.ndarray | None = None  # float64 (len(cells), 2)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def worker_groups(self) -> dict[int, np.ndarray]:
        """Each simulated worker's run of plan positions, ascending."""
        ends = np.cumsum(np.bincount(self.workers))
        return {
            int(worker): np.arange(ends[worker - 1] if worker else 0, ends[worker])
            for worker in np.flatnonzero(np.diff(ends, prepend=0))
        }


class _Segments(Sequence):
    """A column cut at ``bounds``: entry ``p`` is the view
    ``column[bounds[p]:bounds[p + 1]]``."""

    def __init__(self, column: np.ndarray, bounds: np.ndarray):
        if len(column) != bounds[-1]:
            raise ValueError("collect_pairs=False: the report has counts, not pairs")
        self._column = column
        self._bounds = bounds

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, p: int) -> np.ndarray:
        if not 0 <= p < len(self):
            raise IndexError(p)
        return self._column[self._bounds[p] : self._bounds[p + 1]]


@dataclass
class ExecutionReport:
    """The kernel output as one column pair, plus measured wall-clock per
    worker."""

    backend: str
    os_workers: int
    #: Every result pair, in plan-position (task-major) order: position
    #: ``p``'s pairs are ``r_col[bounds[p]:bounds[p + 1]]`` (likewise
    #: ``s_col``).  The columns are the job's own -- views of pool slabs
    #: nothing else aliases while referenced -- so ``collect`` hands them
    #: out as they are.  Empty under ``collect_pairs=False`` (counts only).
    r_col: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    s_col: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    bounds: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    #: Candidate pairs examined per plan position.
    candidates: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    #: Measured seconds per simulated worker (its whole cell group).
    worker_wall: dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # fault tolerance
    # ------------------------------------------------------------------
    #: Backend that finished the last task (equals ``backend`` unless
    #: execution degraded down the fallback chain).
    backend_used: str = ""
    #: Fallback backends entered, in order (empty when healthy).
    degraded: list[str] = field(default_factory=list)
    #: Total task attempts issued (first runs + retries + speculation).
    attempts: int = 0
    #: Re-executions of failed tasks (attempts - tasks - speculative).
    retries: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0
    #: Times a broken process pool was replaced.
    pool_rebuilds: int = 0
    #: Measured seconds lost to failed attempts and backoff waits.
    recovery_seconds: float = 0.0
    #: Injected-fault decisions consulted while scheduling attempts.
    fault_events: list[FaultEvent] = field(default_factory=list)
    #: Observed attempt failures with their triggering exception -- what
    #: actually went wrong, injected or real (recovery paths used to
    #: swallow this; now it feeds recovery spans and the run report).
    failures: list[TaskFailure] = field(default_factory=list)
    #: Attempts per simulated worker's task, for lineage-recompute
    #: charging on the modelled clocks.
    task_attempts: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # fine-grained recovery (checkpoint salvage; see repro.engine.blockstore)
    # ------------------------------------------------------------------
    #: Cells absorbed from checkpoints instead of being recomputed.
    cells_salvaged: int = 0
    #: Measured kernel seconds the salvaged cells originally cost -- the
    #: wall-clock work recovery did *not* redo.
    salvaged_wall_seconds: float = 0.0
    #: Per plan position: times the position was re-submitted for
    #: recomputation (lineage recompute on the modelled clocks).
    resubmit_counts: np.ndarray = field(default_factory=lambda: _EMPTY.copy())
    #: Per plan position: times a re-submission skipped the position
    #: because a checkpoint covered it (modelled recovery savings).
    salvage_counts: np.ndarray = field(default_factory=lambda: _EMPTY.copy())

    # ------------------------------------------------------------------
    # cluster backend (see repro.engine.cluster_backend)
    # ------------------------------------------------------------------
    #: Shuffle blocks whose primary copy was lost and that were re-read
    #: from the coordinator's authoritative copy instead.
    blocks_refetched: int = 0
    #: Block fetches the coordinator served as the fallback holder.
    fallback_fetches: int = 0
    #: Daemon processes started over the job (initial members + respawns).
    daemons_spawned: int = 0
    #: Daemons declared lost (heartbeat silence or connection EOF).
    daemons_lost: int = 0
    #: Lost daemons that turned out alive and rejoined (false positives).
    daemon_rejoins: int = 0

    @property
    def pair_r(self) -> Sequence[np.ndarray]:
        """Per plan position: its R ids, a view of :attr:`r_col`."""
        return _Segments(self.r_col, self.bounds)

    @property
    def pair_s(self) -> Sequence[np.ndarray]:
        """Per plan position: its S ids, a view of :attr:`s_col`."""
        return _Segments(self.s_col, self.bounds)

    @property
    def wall_makespan(self) -> float:
        """Slowest worker group -- the measured analogue of the modelled
        join makespan (exact when every group had its own OS worker)."""
        return max(self.worker_wall.values(), default=0.0)

    @property
    def wall_total(self) -> float:
        """Total kernel seconds across all worker groups."""
        return float(sum(self.worker_wall.values()))


def build_execution_plan(
    r_arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    s_arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    r_layout: tuple[np.ndarray, np.ndarray, np.ndarray],
    s_layout: tuple[np.ndarray, np.ndarray, np.ndarray],
    cell_workers,
    origins: np.ndarray | None = None,
    cells: np.ndarray | None = None,
) -> ExecutionPlan:
    """Pack the shuffle output into an :class:`ExecutionPlan`.

    ``r_arrays``/``s_arrays`` are each side's ``(ids, xs, ys)`` parallel
    arrays.  Each side's ``*_layout`` is ``(cells, bounds, point_idx)``
    straight from the shuffle's stable cell sort: ``cells`` ascending
    unique cell ids, ``point_idx`` the side's point indices grouped by
    cell, and ``bounds`` (len(cells) + 1) delimiting each group.  Only
    cells present on both sides join (the sorted intersection, ``cells``
    if the caller has already taken it); ``cell_workers`` maps that
    cell-id array to its simulated workers in one vectorized call, and
    ``origins`` is aligned to the joinable cells as passed in.  Positions
    come out ordered by ``(worker, cell)``.  Pure array ops: no per-cell
    Python loop, one fancy gather per column.
    """
    if cells is None:
        cells = np.intersect1d(r_layout[0], s_layout[0], assume_unique=True)
    cells = cells.astype(np.int64, copy=False)
    workers = np.asarray(cell_workers(cells), dtype=np.int64)
    # task-major: the stable sort keeps cells ascending inside a worker
    order, workers = stable_argsort(workers, int(workers.max(initial=-1)) + 1)
    cells = cells[order]
    if origins is not None:
        origins = origins[order]

    def pack(arrays, layout):
        ids, xs, ys = arrays
        uniq, bounds, idx_sorted = layout
        # joinable cells are a subset of the side's cells
        idx, offsets = _gather_segments(bounds, np.searchsorted(uniq, cells))
        idx = idx_sorted[idx]
        return ids[idx], xs[idx], ys[idx], offsets

    rb = pack(r_arrays, r_layout)
    sb = pack(s_arrays, s_layout)
    return ExecutionPlan(cells, workers, *rb, *sb, origins=origins)


# ----------------------------------------------------------------------
# kernel invocation shared by every backend
# ----------------------------------------------------------------------
def _fault_midpoint(n: int) -> int:
    """Cells an attempt completes before a mid-task injected fault fires.

    Deterministic (backend-independent) so faulted runs stay bit-exact:
    the fault fires after ``ceil(n / 2)`` cells, so even a one-cell group
    checkpoints its cell before dying and the retry salvages everything.
    """
    return (n + 1) // 2


def _gather_segments(offsets: np.ndarray, positions: np.ndarray):
    """Row indices selecting ``positions``' segments, plus local offsets."""
    starts = offsets[positions]
    counts = offsets[positions + 1] - starts
    total = int(counts.sum())
    local = np.zeros(len(positions) + 1, dtype=np.int64)
    np.cumsum(counts, out=local[1:])
    if total == 0:
        return _EMPTY, local
    idx = np.repeat(starts - local[:-1], counts) + np.arange(
        total, dtype=np.int64
    )
    return idx, local


@dataclass
class TaskBlock:
    """One attempt's output: the pairs of ``positions``, back to back.

    ``bounds`` (len(positions) + 1, from 0) cuts ``r``/``s`` per position.
    ``at`` is set when the block was written straight into the job's
    columns (the serial tier): ``r``/``s`` are then views of them, from
    that offset.
    """

    positions: np.ndarray
    r: np.ndarray
    s: np.ndarray
    bounds: np.ndarray
    candidates: np.ndarray
    at: int | None = None


def _task_columns(plan: ExecutionPlan, positions: np.ndarray):
    """A whole task's inputs, as slices of the plan.

    ``positions`` is a task's unfiltered run of plan positions.  Returns
    ``(r_ids, r_xs, r_ys, r_offsets, s_ids, s_xs, s_ys, s_offsets,
    origins)`` with the offsets local to the slices.
    """
    lo, hi = int(positions[0]), int(positions[-1]) + 1
    if hi - lo != len(positions):
        raise ValueError("a task's plan positions must be one contiguous run")
    r_lo, r_hi = int(plan.r_offsets[lo]), int(plan.r_offsets[hi])
    s_lo, s_hi = int(plan.s_offsets[lo]), int(plan.s_offsets[hi])
    return (
        plan.r_ids[r_lo:r_hi], plan.r_xs[r_lo:r_hi], plan.r_ys[r_lo:r_hi],
        plan.r_offsets[lo : hi + 1] - r_lo,
        plan.s_ids[s_lo:s_hi], plan.s_xs[s_lo:s_hi], plan.s_ys[s_lo:s_hi],
        plan.s_offsets[lo : hi + 1] - s_lo,
        plan.origins[lo:hi] if plan.origins is not None else None,
    )


def _probe_task(plan: ExecutionPlan, positions: np.ndarray, eps: float, probe_fn):
    """A batch kernel's probe over one whole task (``None``: it declines)."""
    *columns, origins = _task_columns(plan, positions)
    return probe_fn(*columns, eps, origins)


def _run_cells(
    plan: ExecutionPlan,
    positions: np.ndarray,
    kernel_name: str,
    eps: float,
    checkpoints=None,
    fault_at: int | None = None,
    fire=None,
    staged=None,
) -> TaskBlock:
    """Run a task's cells in order; return its pairs as one block.

    ``fire`` is this attempt's injected fault (if any); it triggers once
    ``fault_at`` cells have completed, so with checkpointing enabled a
    failing attempt still persists the cells it finished first.

    Without checkpointing, a kernel that registered a batched variant
    handles the whole task in one probe and one expand (bit-identical
    output; see :mod:`repro.engine.kernels`) -- the fault then fires up
    front, exactly where the per-cell loop fires it (``fault_at == 0``).
    ``staged`` is the serial tier's ``(probe, out_r, out_s, offset)``: it
    has probed the task already, and the hits go into the job's columns
    at ``offset``; otherwise the task probes here and expands into
    columns of its own.  Per-cell checkpoints need the per-cell loop: a
    batched pass has no per-cell completion points to snapshot.  Kernels
    without a batched variant, and probes that decline, run the loop too.
    """
    from repro.engine.kernels import get_batch_kernel, get_kernel

    batch = get_batch_kernel(kernel_name) if checkpoints is None else None
    if batch is not None:
        if fire is not None:
            fire()
        probe_fn, expand_fn = batch
        if staged is not None:
            probe, out_r, out_s, at = staged
            end, bounds = expand_fn(probe, out_r, out_s, at)
            return TaskBlock(
                positions, out_r[at:end], out_s[at:end], bounds - at,
                probe.candidates, at,
            )
        probe = _probe_task(plan, positions, eps, probe_fn)
        if probe is not None:
            # sized for every candidate: pages past the last hit stay untouched
            out_r = lease(probe.total, plan.r_ids.dtype)
            out_s = lease(probe.total, plan.s_ids.dtype)
            end, bounds = expand_fn(probe, out_r, out_s, 0)
            return TaskBlock(
                positions, out_r[:end], out_s[:end], bounds, probe.candidates
            )

    kernel = get_kernel(kernel_name)
    ro, so = plan.r_offsets, plan.s_offsets
    rids, sids = [], []
    candidates = np.zeros(len(positions), dtype=np.int64)
    for i, pos in enumerate(positions):
        if fire is not None and i == fault_at:
            fire()
        p = int(pos)
        r_lo, r_hi = ro[p], ro[p + 1]
        s_lo, s_hi = so[p], so[p + 1]
        origin = None
        if plan.origins is not None:
            origin = (plan.origins[p, 0], plan.origins[p, 1])
        cell_start = time.perf_counter() if checkpoints is not None else 0.0
        rid, sid, cand = kernel(
            plan.r_ids[r_lo:r_hi],
            plan.r_xs[r_lo:r_hi],
            plan.r_ys[r_lo:r_hi],
            plan.s_ids[s_lo:s_hi],
            plan.s_xs[s_lo:s_hi],
            plan.s_ys[s_lo:s_hi],
            eps,
            origin=origin,
        )
        rids.append(rid)
        sids.append(sid)
        candidates[i] = cand
        if checkpoints is not None:
            checkpoints.save(
                p, rid, sid, int(cand), time.perf_counter() - cell_start
            )
    if fire is not None and fault_at is not None and fault_at >= len(positions):
        fire()
    bounds = np.zeros(len(positions) + 1, dtype=np.int64)
    np.cumsum([len(rid) for rid in rids], out=bounds[1:])
    return TaskBlock(
        positions,
        np.concatenate(rids, dtype=np.int64),
        np.concatenate(sids, dtype=np.int64),
        bounds,
        candidates,
    )


def _run_attempt(
    plan: ExecutionPlan,
    positions: np.ndarray,
    kernel_name: str,
    eps: float,
    worker_id: int,
    attempt: int,
    faults: FaultPlan | None,
    checkpoints,
    tracer: Tracer,
    parent_span_id: str | None,
    on_kill=None,
    staged=None,
    ship: bool = False,
    **span_attrs,
) -> tuple[TaskBlock, float, list | None]:
    """One task attempt, wherever it runs: decide this attempt's injected
    faults, then run its cells under a ``task_run`` span.

    Without checkpointing, faults fire before any cell runs (a lost
    worker loses everything -- the legacy behaviour).  With checkpointing,
    the fault fires after half the attempt's cells completed; those cells
    are already checkpointed, so the next attempt salvages them.  The
    straggler sleep counts into the returned elapsed seconds: a slow
    node's task *is* slow, and the measured makespan should show it.

    The span is a child of the scheduler's ``task`` span; a failed attempt
    records nothing here -- the scheduler's span carries the failure.
    Returns ``(block, elapsed, span_payload)``.  On the serial/threads
    tiers ``tracer`` is the job's, the payload slot is ``None`` and an
    injected kill raises (the ``on_kill`` default).  A worker *process*
    passes a tracer of its own with ``ship=True`` -- its spans cannot
    share the parent's buffers, so, exactly like spilled blocks, they
    travel back by value for the parent to ``merge()`` -- and an
    ``on_kill`` that really takes the process down.
    """
    def raise_kill():
        raise InjectedWorkerKill(
            f"worker {worker_id} killed (attempt {attempt})"
        )

    span = None
    if tracer.enabled:
        span = tracer.begin(
            "task_run",
            cat="task",
            parent_id=parent_span_id,
            worker=worker_id,
            attrs={"attempt": attempt, "cells": int(len(positions)), **span_attrs},
        )
    fire = None
    if faults is not None and faults.decide("kill", worker_id, attempt) is not None:
        fire = on_kill or raise_kill
        if checkpoints is None:
            fire()
    start = time.perf_counter()
    if faults is not None:
        delay = faults.straggler_delay(worker_id, attempt)
        if delay > 0:
            time.sleep(delay)
        if fire is None and faults.decide("kernel", worker_id, attempt) is not None:
            def fire():
                raise InjectedKernelError(
                    f"injected kernel failure in worker {worker_id} "
                    f"(attempt {attempt})"
                )
    fault_at = None
    if fire is not None:
        fault_at = _fault_midpoint(len(positions)) if checkpoints is not None else 0
    block = _run_cells(
        plan, positions, kernel_name, eps, checkpoints, fault_at, fire, staged
    )
    elapsed = time.perf_counter() - start
    tracer.end(span)
    return block, elapsed, tracer.export_payload() if ship else None


# ----------------------------------------------------------------------
# the processes backend: shared-memory blocks, one per side
# ----------------------------------------------------------------------
_SHM_SEQ = itertools.count()


def _new_shm(size: int):
    """Create a shared-memory segment named ``repro_<pid>_<seq>_<nonce>``.

    Embedding the owner pid in the name lets a later run's startup
    hygiene sweep (:mod:`repro.engine.hygiene`) attribute a leaked
    segment to its (dead) creator and reclaim it; anonymous ``psm_*``
    names are unattributable and leak forever after a SIGKILL.
    """
    from multiprocessing import shared_memory

    while True:
        name = f"repro_{os.getpid()}_{next(_SHM_SEQ)}_{os.urandom(3).hex()}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - nonce collision
            continue


def _side_to_shm(ids: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Copy one side's arrays into a single shared block ``[ids|xs|ys]``."""
    n = len(ids)
    shm = _new_shm(max(1, 3 * 8 * n))
    if n:
        np.ndarray(n, dtype=np.int64, buffer=shm.buf, offset=0)[:] = ids
        np.ndarray(n, dtype=np.float64, buffer=shm.buf, offset=8 * n)[:] = xs
        np.ndarray(n, dtype=np.float64, buffer=shm.buf, offset=16 * n)[:] = ys
    return shm


def _attach_side(name: str, n: int):
    """Attach one side's shared block; return (shm, ids, xs, ys) views."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    ids = np.ndarray(n, dtype=np.int64, buffer=shm.buf, offset=0)
    xs = np.ndarray(n, dtype=np.float64, buffer=shm.buf, offset=8 * n)
    ys = np.ndarray(n, dtype=np.float64, buffer=shm.buf, offset=16 * n)
    return shm, ids, xs, ys


def _plan_meta_layout(n: int, has_origins: bool, total_positions: int):
    """Byte offsets of the plan-metadata block's sections."""
    cells_off = 0
    workers_off = 8 * n
    r_off_off = 16 * n
    s_off_off = r_off_off + 8 * (n + 1)
    origins_off = s_off_off + 8 * (n + 1)
    positions_off = origins_off + (16 * n if has_origins else 0)
    size = positions_off + 8 * total_positions
    return cells_off, workers_off, r_off_off, s_off_off, origins_off, positions_off, size


def _plan_meta_to_shm(plan: ExecutionPlan, tasks: Mapping[int, np.ndarray]):
    """Publish plan metadata + the task position table as one shared block.

    Layout: ``[cells | workers | r_offsets | s_offsets | origins? |
    positions]`` where ``positions`` concatenates every task's plan
    positions.  Task args then carry only a ``(start, length)`` slice
    descriptor into that table -- nothing per-cell crosses the pickle
    boundary.  Returns ``(shm, pos_desc)`` with ``pos_desc`` mapping
    worker id to its descriptor.
    """
    n = plan.num_cells
    has_origins = plan.origins is not None
    pos_desc: dict[int, tuple[int, int]] = {}
    total = 0
    for worker_id, positions in tasks.items():
        pos_desc[worker_id] = (total, len(positions))
        total += len(positions)
    (cells_off, workers_off, r_off_off, s_off_off, origins_off,
     positions_off, size) = _plan_meta_layout(n, has_origins, total)
    shm = _new_shm(max(1, size))

    def sect(count, dtype, offset):
        return np.ndarray(count, dtype=dtype, buffer=shm.buf, offset=offset)

    if n:
        sect(n, np.int64, cells_off)[:] = plan.cells
        sect(n, np.int64, workers_off)[:] = plan.workers
    sect(n + 1, np.int64, r_off_off)[:] = plan.r_offsets
    sect(n + 1, np.int64, s_off_off)[:] = plan.s_offsets
    if has_origins and n:
        sect(2 * n, np.float64, origins_off)[:] = plan.origins.reshape(-1)
    if total:
        blob = sect(total, np.int64, positions_off)
        for worker_id, positions in tasks.items():
            start, length = pos_desc[worker_id]
            blob[start : start + length] = positions
    return shm, pos_desc


def _attach_plan_meta(name: str, n: int, has_origins: bool, total_positions: int):
    """Attach the plan-metadata block; return (shm, *zero-copy views*)."""
    from multiprocessing import shared_memory

    (cells_off, workers_off, r_off_off, s_off_off, origins_off,
     positions_off, _size) = _plan_meta_layout(n, has_origins, total_positions)
    shm = shared_memory.SharedMemory(name=name)

    def sect(count, dtype, offset):
        return np.ndarray(count, dtype=dtype, buffer=shm.buf, offset=offset)

    cells = sect(n, np.int64, cells_off)
    workers = sect(n, np.int64, workers_off)
    r_offsets = sect(n + 1, np.int64, r_off_off)
    s_offsets = sect(n + 1, np.int64, s_off_off)
    origins = None
    if has_origins:
        origins = sect(2 * n, np.float64, origins_off).reshape(n, 2)
    positions = sect(total_positions, np.int64, positions_off)
    return shm, cells, workers, r_offsets, s_offsets, origins, positions


def _make_process_task_args(
    worker_id: int,
    positions: np.ndarray,
    task_positions: np.ndarray,
    pos_desc: Mapping[int, tuple[int, int]],
    kernel_name: str,
    eps: float,
    r_name: str,
    n_r: int,
    s_name: str,
    n_s: int,
    meta_name: str,
    n_cells: int,
    has_origins: bool,
    total_positions: int,
    attempt: int,
    faults,
    checkpoints,
    trace_enabled: bool,
    run_id,
    parent_span_id,
) -> tuple:
    """Build one process-pool task's argument tuple.

    When ``positions`` is the task's original group (the common case) it
    travels as a ``("slice", start, length)`` descriptor against the
    shared position table; only a checkpoint salvage -- which filters the
    group to an array the parent alone knows -- ships explicit positions.
    Kept as a named helper so tests can lint the payload size.
    """
    if positions is task_positions and worker_id in pos_desc:
        start, length = pos_desc[worker_id]
        pos_spec = ("slice", start, length)
    else:
        pos_spec = ("array", positions)
    return (
        worker_id, pos_spec, kernel_name, eps,
        r_name, n_r, s_name, n_s,
        meta_name, n_cells, has_origins, total_positions,
        attempt, faults, checkpoints,
        trace_enabled, run_id, parent_span_id,
    )


def _process_group(args) -> tuple[TaskBlock, float, list]:
    """Pool task: attach the shared blocks, run one worker group's cells.

    Returns ``(block, elapsed, span_payload)``.  A killed child
    (``os._exit``) ships nothing; the scheduler-side ``task`` span still
    records the loss.
    """
    (
        worker_id,
        pos_spec,
        kernel_name,
        eps,
        r_name,
        n_r,
        s_name,
        n_s,
        meta_name,
        n_cells,
        has_origins,
        total_positions,
        attempt,
        faults,
        checkpoints,
        trace_enabled,
        run_id,
        parent_span_id,
    ) = args
    if (
        checkpoints is None
        and faults is not None
        and faults.decide("kill", worker_id, attempt) is not None
    ):
        # a real executor loss: take the process down (breaking the pool),
        # don't raise a catchable exception; with checkpointing enabled
        # the kill instead fires mid-task inside _attempt_run, after the
        # finished cells were persisted
        os._exit(13)
    shm_meta, cells, workers, r_offsets, s_offsets, origins, pos_table = (
        _attach_plan_meta(meta_name, n_cells, has_origins, total_positions)
    )
    try:
        if pos_spec[0] == "slice":
            _tag, start, length = pos_spec
            positions = pos_table[start : start + length]
        else:
            positions = pos_spec[1]
        tracer = Tracer(enabled=trace_enabled, run_id=run_id)
        shm_r, r_ids, r_xs, r_ys = _attach_side(r_name, n_r)
        try:
            shm_s, s_ids, s_xs, s_ys = _attach_side(s_name, n_s)
        except BaseException:
            shm_r.close()
            raise
        try:
            plan = ExecutionPlan(
                cells, workers,
                r_ids, r_xs, r_ys, r_offsets,
                s_ids, s_xs, s_ys, s_offsets,
                origins=origins,
            )
            block, elapsed, span_payload = _run_attempt(
                plan, positions, kernel_name, eps, worker_id, attempt, faults,
                checkpoints, tracer, parent_span_id,
                on_kill=lambda: os._exit(13), ship=True,
            )
            # the block's pairs are arrays of its own (one pair per task
            # crosses the pickle boundary), but its positions may be a view
            # of the shared position table, which dies with the task
            block.positions = np.array(block.positions)
        finally:
            del r_ids, r_xs, r_ys, s_ids, s_xs, s_ys
            shm_r.close()
            shm_s.close()
    finally:
        del cells, workers, r_offsets, s_offsets, origins, pos_table
        shm_meta.close()
    return block, elapsed, span_payload


def _pool_context():
    """Prefer fork (cheap on Linux); fall back to the platform default."""
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else None)


# ----------------------------------------------------------------------
# fault-tolerant scheduling
# ----------------------------------------------------------------------
class _ResultColumns:
    """The job's result column pair while it fills.

    Task outputs arrive as :class:`TaskBlock` s, in any order and from
    any tier; :meth:`finish` cuts the report's columns from them.  The
    serial tier :meth:`reserve` s the columns up front and expands every
    task into them at its running offset, so its blocks already sit where
    they belong and ``finish`` hands out the written prefix; blocks from
    anywhere else are copied into place once.  With ``collect`` off a
    block's pairs are dropped as it is added: only the counts are kept.
    """

    def __init__(self, plan: ExecutionPlan, collect: bool = True):
        n = plan.num_cells
        self.collect = collect
        self.pair_counts = np.zeros(n, dtype=np.int64)
        self.candidates = np.zeros(n, dtype=np.int64)
        self.blocks: list[TaskBlock] = []
        self.r_col = np.empty(0, dtype=plan.r_ids.dtype)
        self.s_col = np.empty(0, dtype=plan.s_ids.dtype)

    def reserve(self, total: int) -> None:
        """Lease the columns with room for ``total`` pairs."""
        self.r_col = lease(total, self.r_col.dtype)
        self.s_col = lease(total, self.s_col.dtype)

    def add(self, block: TaskBlock) -> None:
        self.pair_counts[block.positions] = np.diff(block.bounds)
        self.candidates[block.positions] = block.candidates
        if self.collect:
            self.blocks.append(block)

    def finish(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(r_col, s_col, bounds)`` in plan-position order."""
        bounds = np.zeros(len(self.pair_counts) + 1, dtype=np.int64)
        np.cumsum(self.pair_counts, out=bounds[1:])
        if not self.collect:
            return self.r_col, self.s_col, bounds  # never reserved: empty
        total = int(bounds[-1])
        if all(block.at == bounds[block.positions[0]] for block in self.blocks):
            # every pair was written where it belongs: nothing is copied.
            # A view, not a resize: the slab returns with the last reference
            return self.r_col[:total], self.s_col[:total], bounds
        r_col = lease(total, self.r_col.dtype)
        s_col = lease(total, self.s_col.dtype)
        for block in self.blocks:
            pos = block.positions
            # a run of consecutive positions is contiguous in the block and
            # in the columns; only a salvage remainder has more than one run
            cuts = (np.flatnonzero(np.diff(pos) != 1) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(pos)]):
                src = slice(int(block.bounds[lo]), int(block.bounds[hi]))
                dst = slice(int(bounds[pos[lo]]), int(bounds[pos[hi - 1] + 1]))
                r_col[dst] = block.r[src]
                s_col[dst] = block.s[src]
        return r_col, s_col, bounds


def _serial_tier(plan, tasks, kernel_name, eps, ledger, checkpoints, columns):
    """Run tasks in-process, one attempt at a time; return unrecoverable.

    Tasks run in ascending worker (= plan position) order.  With a batch
    kernel every task is probed first: the summed candidate total sizes
    the job's result columns, and each task's attempt then expands into
    them at the running offset.  A failed attempt leaves the offset where
    it was, so the retry overwrites whatever it had written.  Uncollected
    pairs are neither probed ahead nor reserved for: a task expands into a
    leased pair of its own, as a pooled task does, and the next reuses it.
    A retry's backoff is a blocking sleep: nothing else could run meanwhile.
    """
    from repro.engine.kernels import get_batch_kernel

    probes: dict[int, tuple[object, float]] = {}
    batch = get_batch_kernel(kernel_name) if checkpoints is None else None
    if batch is not None and columns.collect:
        for worker_id in sorted(tasks):
            start = time.perf_counter()
            probe = _probe_task(plan, tasks[worker_id], eps, batch[0])
            if probe is not None:
                probes[worker_id] = (probe, time.perf_counter() - start)
        columns.reserve(sum(probe.total for probe, _ in probes.values()))
    offset = 0  # end of the last block expanded into the job's columns
    for worker_id in sorted(tasks):
        # popped: a probe's windows are freed as soon as its task is done
        probe, probe_seconds = probes.pop(worker_id, (None, 0.0))
        flight = ledger.begin(worker_id)
        while flight is not None:
            staged = None
            if probe is not None:
                staged = (probe, columns.r_col, columns.s_col, offset)
            try:
                block, elapsed, _ = _run_attempt(
                    plan, flight.positions, kernel_name, eps, worker_id,
                    flight.attempt, ledger.faults, checkpoints, ledger.tracer,
                    flight.span_id, staged=staged,
                )
            except Exception as exc:
                pause = ledger.fail(flight, exc, ledger.clock())
                if pause is None:
                    break  # the budget is spent on this tier
                time.sleep(pause)
                flight = ledger.begin(worker_id)
            else:
                # the task's wall is its probe plus its expand
                ledger.win(flight, block, probe_seconds + elapsed)
                if staged is not None:
                    offset += len(block.r)
                del block  # uncollected pairs: their slabs are free again
                break
    return ledger.close()


def _pool_tier(backend, plan, tasks, kernel_name, eps, ledger, os_workers, checkpoints):
    """Run tasks on a thread or process pool; return unrecoverable tasks.

    The transport owns publishing the plan (``processes``: three shared
    memory blocks), submitting attempts, draining completions and
    replacing a broken process pool; what to launch, whom to charge and
    who won are the ledger's calls.
    """
    # the pools are imported with the first pooled tier: a serial run
    # loads no concurrent.futures, and only ``processes`` the process pool
    from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait

    broken_types: tuple[type[BaseException], ...] = ()
    if backend == "processes":
        from concurrent.futures.process import BrokenProcessPool

        broken_types = (BrokenProcessPool,)

    pending: dict = {}  # Future -> Flight

    def make_pool():
        if backend == "threads":
            return ThreadPoolExecutor(max_workers=os_workers)
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=os_workers, mp_context=_pool_context()
        )

    shm_r = shm_s = shm_meta = None
    pos_desc: dict[int, tuple[int, int]] = {}
    total_positions = sum(len(p) for p in tasks.values())
    pool = None
    pool_shared = False
    try:
        if backend == "processes":
            shm_r = _side_to_shm(plan.r_ids, plan.r_xs, plan.r_ys)
            shm_s = _side_to_shm(plan.s_ids, plan.s_xs, plan.s_ys)
            shm_meta, pos_desc = _plan_meta_to_shm(plan, tasks)
        pool, pool_shared = _acquire_pool(backend, os_workers, make_pool)

        def launch(worker_id: int, speculative: bool = False) -> None:
            flight = ledger.begin(worker_id, speculative)
            if flight is None:
                return
            if backend == "threads":
                fut = pool.submit(
                    _run_attempt, plan, flight.positions, kernel_name, eps,
                    worker_id, flight.attempt, ledger.faults, checkpoints,
                    ledger.tracer, flight.span_id,
                )
            else:
                args = _make_process_task_args(
                    worker_id, flight.positions, tasks[worker_id], pos_desc,
                    kernel_name, eps,
                    shm_r.name, len(plan.r_ids),
                    shm_s.name, len(plan.s_ids),
                    shm_meta.name, plan.num_cells,
                    plan.origins is not None,
                    total_positions,
                    flight.attempt, ledger.faults, checkpoints,
                    ledger.tracer.enabled, ledger.tracer.run_id, flight.span_id,
                )
                try:
                    fut = pool.submit(_process_group, args)
                except broken_types as exc:
                    # an earlier attempt's worker died already: this one is
                    # lost with the pool, and the drain below rebuilds it
                    fut = Future()
                    fut.set_exception(exc)
            pending[fut] = flight

        for worker_id in tasks:
            launch(worker_id)

        while pending or ledger.queued:
            now = ledger.clock()
            for worker_id in ledger.due(now):
                launch(worker_id)
            if not pending:
                soonest = min(ledger.queued.values(), default=now)
                if soonest > now:
                    time.sleep(min(soonest - now, 0.05))
                continue
            timeout = None
            if ledger.policy.task_timeout is not None or ledger.queued:
                timeout = _TICK
            done, _ = wait(
                set(pending), timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = ledger.clock()
            pool_died: BaseException | None = None
            for fut in done:
                flight = pending.pop(fut, None)
                if flight is None:
                    continue  # a finished sibling already evicted this one
                try:
                    block, elapsed, span_payload = fut.result()
                except Exception as exc:
                    if isinstance(exc, broken_types):
                        pool_died = exc
                    ledger.fail(flight, exc, now)
                else:
                    ledger.tracer.merge(span_payload)
                    if ledger.win(flight, block, elapsed):
                        for sibling, fl in list(pending.items()):
                            if fl.task == flight.task:
                                sibling.cancel()
                                del pending[sibling]
            if pool_died is not None:
                # the pool is unusable: every in-flight attempt died with
                # it; replenish the pool and let the ledger queue retries
                flights = list(pending.values())
                pending.clear()
                for flight in flights:
                    ledger.fail(flight, pool_died, now)
                _discard_pool(backend, os_workers, pool, pool_shared)
                pool, pool_shared = _acquire_pool(
                    backend, os_workers, make_pool
                )
                ledger.report.pool_rebuilds += 1
                ledger.registry.counter("executor.pool_rebuilds").inc()
                ledger.tracer.event(
                    "pool_rebuild",
                    cat="recovery",
                    backend=backend,
                    error_type=type(pool_died).__name__,
                    error_message=str(pool_died),
                )
                ledger.log.warning(
                    "process pool died (%s); rebuilt with %d workers",
                    type(pool_died).__name__, os_workers,
                )
                continue
            # a backlog means old flights are probably just queued, not
            # stragglers: flight age counts from submission, the only
            # observable moment for a process-pool task
            if len(pending) <= os_workers:
                for flight in ledger.stragglers(now):
                    launch(flight.task, speculative=True)
    finally:
        if pool is not None and not pool_shared:
            pool.shutdown(wait=True)
        for shm in (shm_r, shm_s, shm_meta):
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - defensive
                    pass
    return ledger.close()


def execute_plan(
    plan: ExecutionPlan,
    kernel_name: str,
    eps: float,
    backend: str = "serial",
    max_workers: int | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoints=None,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    cluster=None,
    collect_pairs: bool = True,
) -> ExecutionReport:
    """Run every cell's local join on the chosen backend, fault tolerantly.

    ``max_workers`` caps the OS-level workers (default: the host CPU
    count, at most one per simulated-worker group).  Results come back in
    plan-position (task-major) order regardless of completion order --
    and regardless of which attempt, speculative copy, or fallback
    backend produced them.

    ``faults`` injects deterministic failures (see
    :mod:`repro.engine.faults`); ``retry`` configures recovery (default
    :class:`RetryPolicy`).  ``checkpoints`` (a
    :class:`~repro.engine.blockstore.CheckpointManager`) enables
    fine-grained recovery: finished cells are snapshotted and a retried
    task salvages them instead of recomputing its whole group.  Raises
    :class:`~repro.engine.faults.RetryBudgetExhausted` when a task cannot
    be completed on any backend in the fallback chain.

    ``tracer``/``registry`` (see :mod:`repro.engine.telemetry`) record a
    ``task`` span per attempt plus recovery/salvage events, and publish
    executor counters; both default to disabled/throwaway instances, so
    instrumentation is always-on but free when nobody is listening.

    A kernel with a registered batched variant (see
    :func:`repro.engine.kernels.register_batch_kernel`) runs each task's
    whole cell group in one probe and one expand unless ``checkpoints``
    is set, since per-cell snapshots need the per-cell loop.  Output is
    bit-identical either way.

    ``cluster`` tunes the ``cluster`` backend: a
    :class:`~repro.engine.cluster_backend.ClusterConfig`, a mapping of
    its fields, or ``None`` for defaults.  Ignored by other backends.

    ``collect_pairs=False``: nobody will read the pairs, so the report has
    ``bounds`` (the counts) and ``candidates`` with empty columns, and a
    task's result memory is the next task's, whatever the result size.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    policy = retry if retry is not None else RetryPolicy()
    if faults is not None and not faults:
        faults = None
    if tracer is None:
        tracer = Tracer(enabled=False)
    if registry is None:
        registry = MetricsRegistry()
    log = get_logger("repro.engine.executor", tracer.run_id)
    groups = plan.worker_groups()
    n = plan.num_cells
    report = ExecutionReport(backend=backend, os_workers=1, backend_used=backend)
    columns = _ResultColumns(plan, collect_pairs)
    report.candidates = columns.candidates
    report.resubmit_counts = np.zeros(n, dtype=np.int64)
    report.salvage_counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return report

    salvaged_done: set[int] = set()
    #: Tasks submitted at least once (across tiers): any later submission
    #: is a *re*-submission for the recovery accounting (lineage recompute
    #: vs checkpoint salvage).
    submitted: set[int] = set()
    task_seconds = registry.histogram("executor.task_seconds")

    def absorb(worker_id: int, block: TaskBlock, elapsed: float) -> None:
        report.worker_wall[worker_id] = elapsed
        task_seconds.observe(elapsed)
        columns.add(block)

    def prepare(worker_id: int, positions: np.ndarray) -> np.ndarray:
        """Salvage checkpointed cells; return the positions still to run.

        Every submission after a task's first counts its surviving
        positions as lineage recompute (``resubmit_counts``) and its
        salvaged positions as recovery savings (``salvage_counts``) for
        the modelled clocks.
        """
        resub = worker_id in submitted
        submitted.add(worker_id)
        if checkpoints is not None:
            keep = []
            salvaged_here = 0
            salvaged_secs = 0.0
            for pos in positions:
                p = int(pos)
                if p in salvaged_done:
                    if resub:
                        report.salvage_counts[p] += 1
                    continue
                rec = checkpoints.load(p)
                if rec is None:
                    keep.append(p)
                    continue
                columns.add(
                    TaskBlock(
                        np.array([p]), rec.rid, rec.sid,
                        np.array([0, len(rec.rid)]), np.array([rec.candidates]),
                    )
                )
                salvaged_done.add(p)
                report.cells_salvaged += 1
                report.salvaged_wall_seconds += rec.seconds
                salvaged_here += 1
                salvaged_secs += rec.seconds
                if resub:
                    report.salvage_counts[p] += 1
            if salvaged_here:
                registry.counter("executor.cells_salvaged").inc(salvaged_here)
                tracer.event(
                    "checkpoint_salvage",
                    cat="salvage",
                    worker=worker_id,
                    cells=salvaged_here,
                    seconds=salvaged_secs,
                )
                log.info(
                    "salvaged %d checkpointed cell(s) for worker %d",
                    salvaged_here, worker_id,
                )
            positions = np.asarray(keep, dtype=np.int64)
        if resub and len(positions):
            report.resubmit_counts[positions] += 1
        return positions

    ledger = AttemptLedger(
        policy, faults, report, tracer, registry, log, prepare, absorb
    )
    remaining = dict(groups)
    tier = backend
    while remaining:
        report.backend_used = tier
        ledger.open(tier, remaining)
        if tier == "serial":
            remaining = _serial_tier(
                plan, remaining, kernel_name, eps, ledger, checkpoints, columns
            )
        elif tier == "cluster":
            from repro.engine.cluster_backend import (
                ClusterConfig,
                ClusterUnavailable,
                run_cluster_tier,
            )

            cluster_cfg = ClusterConfig.coerce(cluster)
            n_daemons = cluster_cfg.daemons or max_workers or min(
                len(remaining), os.cpu_count() or 1
            )
            n_daemons = max(1, n_daemons)
            if tier == backend:
                report.os_workers = n_daemons
            try:
                remaining = run_cluster_tier(
                    plan, remaining, kernel_name, eps, ledger, checkpoints,
                    cluster_cfg, n_daemons,
                )
            except ClusterUnavailable as exc:
                # the cluster never came up; no task was attempted, so
                # `remaining` is untouched and the degradation machinery
                # below moves the whole batch to the processes tier
                ledger.last_error = exc
        else:
            os_workers = max_workers or min(len(remaining), os.cpu_count() or 1)
            os_workers = max(1, min(os_workers, len(remaining)))
            if tier == backend:
                report.os_workers = os_workers
            remaining = _pool_tier(
                tier, plan, remaining, kernel_name, eps, ledger, os_workers,
                checkpoints,
            )
        if not remaining:
            break
        fallback = _FALLBACK[tier]
        if fallback is None or not policy.degrade:
            raise ledger.budget_exhausted(len(remaining), tier) from ledger.last_error
        report.degraded.append(fallback)
        last = ledger.last_error
        tracer.event(
            "backend_degraded",
            cat="recovery",
            from_backend=tier,
            to_backend=fallback,
            tasks=len(remaining),
            error_type=type(last).__name__ if last is not None else None,
            error_message=str(last) if last is not None else None,
        )
        registry.counter("executor.degradations").inc()
        log.warning(
            "backend %r could not finish %d task(s) (%s); degrading to %r",
            tier, len(remaining),
            type(last).__name__ if last is not None else "unknown error",
            fallback,
        )
        tier = fallback

    report.r_col, report.s_col, report.bounds = columns.finish()
    report.attempts = sum(ledger.per_task.values())
    report.retries = max(
        0, report.attempts - len(groups) - report.speculative_launched
    )
    report.task_attempts = dict(ledger.per_task)
    registry.gauge("executor.retries").set(report.retries)
    registry.gauge("executor.recovery_seconds").set(report.recovery_seconds)
    registry.gauge("executor.salvaged_wall_seconds").set(
        report.salvaged_wall_seconds
    )
    if report.failures:
        registry.set_meta(
            "executor.failures", [f.to_dict() for f in report.failures]
        )
    if report.degraded:
        registry.set_meta("executor.degraded", list(report.degraded))
    return report
