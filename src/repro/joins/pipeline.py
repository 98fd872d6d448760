"""The staged physical join plan shared by every driver.

Each join driver in this package -- the point distance join, the object
joins and the generalized (rectangulation) join -- executes the same
physical plan::

    Sample -> BuildPartition/Agreements -> Assign -> Shuffle
           -> LocalJoin -> Refine/Dedup

This module makes that plan explicit.  A driver is a *stage list*
(``distance_stages``, ``object_stages``, ``generalized_stages``): each
:class:`Stage` is a small object that reads and writes a shared
:class:`JoinContext` (inputs, outputs, per-stage accounting on the
modelled :class:`~repro.engine.cluster.SimCluster` clocks), and one
generic driver, :func:`run_staged_join`, runs the list -- owning the
per-stage wall clocks (``JoinMetrics.stage_times``, summed by phase
into ``wall_times``) and the lifecycle of the block store.

Stages *assign* the run's numbers to
:class:`~repro.engine.metrics.JoinMetrics` fields; the job epilogue
publishes them into the telemetry registry once
(``JoinMetrics.publish``), so every number has one home.

The stages shared by every driver live here:

* :class:`ShuffleStage` -- exact volume accounting, modelled map/read
  costs, heap model, optional block-store spill, for both fixed-size
  (point) and per-record-size (object) records;
* :class:`ShuffleRecoveryStage` -- injected fetch-fault recovery (whole
  partitions without the store, per-block with it), the peak modelled
  worker heap, and the construction-makespan roll-up;
* :class:`LocalJoinStage` -- packs the shuffled groups into an
  :class:`~repro.engine.executor.ExecutionPlan` and runs it through the
  fault-tolerant executor on any backend;
* :class:`JoinAccountingStage` -- per-cell modelled join costs, measured
  walls, recovery/salvage charging, and all fault-tolerance metrics;
* :class:`DistinctStage` -- the parallel ``distinct`` over result pairs.

Drivers contribute only what is genuinely theirs: the point driver its
grid/agreement construction and origin anchoring, the object driver its
anchor reduction and exact-predicate refinement, the generalized driver
its rectangulation and ownership reporting.

Because stages replicate the legacy drivers' accounting order
operation-for-operation, the refactor is *bit-exact*: result pair sets,
shuffle volumes and modelled makespans are identical to the pre-refactor
drivers (pinned by ``tests/golden/driver_goldens.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro._checks import check_count, check_positive
from repro.agreements.graph import AgreementGraph, agreed_r_mask
from repro.agreements.marking import generate_duplicate_free_graph
from repro.agreements.policies import (
    DiffPolicy,
    LPiBPolicy,
    instantiate_pair_types,
)
from repro.engine.blockstore import SPILL_TIERS, BlockId, BlockLost, BlockStore
from repro.engine.cluster import SALVAGE_PHASE, SimCluster
from repro.engine.executor import (
    BACKENDS,
    build_execution_plan,
    execute_plan,
)
from repro.engine.faults import FaultPlan, ShuffleFetchError
from repro.engine.kernels import get_kernel
from repro.engine.lpt import lpt_assignment
from repro.engine.metrics import COST_MODEL, CostModel, JoinMetrics
from repro.engine.shuffle import ShuffleStats, input_splits, read_seconds
from repro.engine.sorting import run_starts, stable_argsort
from repro.engine.telemetry import MetricsRegistry, Telemetry, Tracer, get_logger
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics
from repro.replication.assign import AdaptiveAssigner
from repro.replication.pbsm import UniversalAssigner

try:  # POSIX only; without it the per-stage fault attribution reads 0
    import resource
except ImportError:  # pragma: no cover
    resource = None

#: Join methods implemented by the grid drivers (point and object).
GRID_METHODS = ("lpib", "diff", "uni_r", "uni_s", "eps_grid")


# ----------------------------------------------------------------------
# execution settings: the driver-independent slice of a join config
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class ExecutionSettings:
    """How a staged join actually executes, independent of *what* it joins.

    The one declaration of the execution surface: backend choice, fault
    injection, retry/speculation policy, shuffle spill and cell
    checkpointing, telemetry and the run history.  Every driver config
    (``JoinConfig``, ``ObjectJoinConfig``, ``GeneralizedJoinConfig``) is
    a subclass, so the fields are flat keywords on each of them and a
    stage reads them off ``ctx.cfg``.  Construction checks every
    field: an invalid value raises a ``ValueError`` naming it before
    any stage runs.
    """

    #: How the local-join phase actually runs on the host: one of
    #: :data:`~repro.engine.executor.BACKENDS`.  All backends produce
    #: bit-identical result pairs; the measured per-worker wall clocks
    #: land in the metrics either way.
    execution_backend: str = "serial"
    #: OS-level worker cap for the parallel backends (``None``: one per
    #: host CPU, at most one per simulated worker).
    executor_workers: int | None = None
    #: Deterministic fault injection (a :class:`FaultPlan` or a spec
    #: string in the ``--faults`` grammar; ``None`` disables injection).
    faults: FaultPlan | str | None = None
    #: Per-task retry budget for failed local-join tasks (per backend of
    #: the fallback chain; see :mod:`repro.engine.attempts`) and shuffle
    #: fetches.
    max_retries: int = 2
    #: Straggler threshold (seconds): a task attempt older than this gets
    #: a speculative copy; ``None`` disables straggler detection.
    task_timeout: float | None = None
    #: Shuffle-spill tier for the block store (see
    #: :mod:`repro.engine.blockstore`): ``none`` re-reads whole
    #: partitions on a failed fetch, ``memory`` or ``disk`` spill map
    #: outputs as addressable blocks so fetch-fault recovery pulls only
    #: the missing blocks.
    spill: str = "none"
    #: Directory for spilled blocks and checkpoints of the ``disk`` tier
    #: (a temporary directory when ``None``).  Requires a spill tier.
    spill_dir: str | None = None
    #: Snapshot per-cell partial join results so a killed or timed-out
    #: reduce attempt salvages finished cells and re-runs only the
    #: remainder.  Requires a spill tier.
    checkpoint_cells: bool = False
    #: The run's :class:`~repro.engine.telemetry.Telemetry` bundle
    #: (tracer + metrics registry).  ``None`` means tracing disabled with
    #: a private throwaway registry -- the always-on default.  It observes
    #: a run without changing it, so two configs that differ only here
    #: are equal (a plan replays under any tracer).
    telemetry: Telemetry | None = field(default=None, compare=False)
    #: Run-history sink (``repro.obs.RunHistory``, or anything with
    #: ``append_report(report_dict)``).  When set, the pipeline appends
    #: this run's ``RunReport.to_json()`` at job end -- duck-typed so the
    #: joins layer never imports ``repro.obs``.  A history failure is
    #: logged and swallowed: observability must never fail a join.
    history: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.execution_backend not in BACKENDS:
            raise ValueError(
                f"execution_backend must be one of {BACKENDS}, "
                f"got {self.execution_backend!r}"
            )
        if self.executor_workers is not None:  # None: one per CPU
            check_count("executor_workers", self.executor_workers, 1)
        try:
            self.fault_plan()
        except ValueError as exc:
            raise ValueError(f"faults: {exc}") from None
        check_count("max_retries", self.max_retries, 0)
        if self.task_timeout is not None:
            check_positive("task_timeout", self.task_timeout)
        if self.spill not in SPILL_TIERS:
            raise ValueError(
                f"spill: unknown spill tier {self.spill!r}; "
                f"choose from {SPILL_TIERS}"
            )
        if self.spill == "none":
            if self.spill_dir is not None:
                raise ValueError("spill_dir requires a spill tier (memory or disk)")
            if self.checkpoint_cells:
                raise ValueError(
                    "checkpoint_cells requires a spill tier (memory or disk)"
                )

    def fault_plan(self) -> FaultPlan | None:
        """The parsed, non-empty fault plan (``None`` disables injection)."""
        plan = (
            FaultPlan.parse(self.faults)
            if isinstance(self.faults, str)
            else self.faults
        )
        if plan is not None and not plan:
            return None
        return plan


@dataclass
class JoinContext:
    """Everything a stage may read or write while a staged join runs."""

    #: The driver config: an :class:`ExecutionSettings` subclass.
    cfg: Any
    cluster: SimCluster
    metrics: JoinMetrics
    shuffle: ShuffleStats
    fault_plan: FaultPlan | None = None
    store: BlockStore | None = None
    telemetry: Telemetry = field(default_factory=Telemetry.disabled)
    #: Inter-stage dataflow: each stage documents the keys it reads and
    #: writes (e.g. ``records``, ``shuffle_layout``, ``plan``, ``report``).
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def num_workers(self) -> int:
        return self.cluster.num_workers

    @property
    def tracer(self) -> Tracer:
        return self.telemetry.tracer

    @property
    def registry(self) -> MetricsRegistry:
        return self.telemetry.registry


def make_context(
    cfg: ExecutionSettings,
    *,
    num_workers: int,
    metrics: JoinMetrics,
) -> JoinContext:
    """Build a :class:`JoinContext`: settings, cluster, store lifecycle.

    ``cfg`` is a driver config, an :class:`ExecutionSettings` subclass
    (checked when it was constructed).  Opens the block store when a
    spill tier is configured; :func:`run_staged_join` closes it on every
    exit path.
    """
    telemetry = cfg.telemetry or Telemetry.disabled()
    ctx = JoinContext(
        cfg=cfg,
        cluster=SimCluster(num_workers),
        metrics=metrics,
        shuffle=ShuffleStats(),
        fault_plan=cfg.fault_plan(),
        telemetry=telemetry,
    )
    if telemetry.enabled:
        # the worker-to-worker byte matrix is a report-only artifact;
        # plain runs skip its accumulation entirely
        ctx.shuffle.enable_matrix(num_workers)
    if cfg.spill != "none":
        ctx.store = BlockStore(cfg.spill, cfg.spill_dir, tracer=telemetry.tracer)
    return ctx


# ----------------------------------------------------------------------
# the stage interface and the generic driver
# ----------------------------------------------------------------------
class Stage:
    """One step of the staged join pipeline.

    ``name`` keys the stage's wall-clock in ``JoinMetrics.stage_times``;
    ``phase`` is the coarse job phase (``construction``, ``map_shuffle``,
    ``join``, ``dedup``) its host seconds and modelled costs belong to.
    ``run`` reads its inputs from and writes its outputs to the context's
    ``data`` dict, charging modelled costs to ``ctx.cluster``.
    """

    name: str = "stage"
    phase: str = "construction"

    def run(self, ctx: JoinContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}/{self.phase}>"


def run_staged_join(stages: list[Stage], ctx: JoinContext) -> JoinContext:
    """Run a stage list to completion: the generic staged-join driver.

    Owns the per-stage wall clocks, and guarantees the block store is
    released on *every* exit path -- including aborts mid-pipeline
    (exhausted retry budget, a fetch that keeps failing).

    When the context carries enabled telemetry, the whole run becomes a
    ``job`` root span with one ``stage`` span per pipeline stage, and the
    run's registry is stocked with everything a
    :class:`~repro.engine.telemetry.RunReport` needs (per-worker clocks,
    stage makespans, the shuffle matrix, the published metrics).  The
    epilogue is the only writer of the run's numbers into the registry.
    """
    tracer = ctx.tracer
    try:
        with tracer.span(
            "job",
            cat="job",
            backend=ctx.cfg.execution_backend,
            workers=ctx.num_workers,
            method=getattr(ctx.cfg, "method", None),
        ):
            for stage in stages:
                started = time.perf_counter()
                with tracer.span(stage.name, cat="stage", phase=stage.phase) as span:
                    before = _thread_rusage()
                    stage.run(ctx)
                    spent = [now - was for was, now in zip(before, _thread_rusage())]
                elapsed = time.perf_counter() - started
                # per stage, and summed by the stage's phase
                m = ctx.metrics
                for times, key in (
                    (m.stage_times, stage.name), (m.wall_times, stage.phase)
                ):
                    times[key] = times.get(key, 0.0) + elapsed
                # wall time cannot say "zeroing pages": the kernel's share
                # of a stage, beside its wall (docs/EXECUTION.md, "Memory")
                extra = m.extra
                for name, delta in zip(("minflt", "sys_s"), spent):
                    if span is not None:
                        span.attrs[name] = delta
                    key = f"{name}.{stage.name}"
                    extra[key] = extra.get(key, 0.0) + delta
    finally:
        # spilled blocks and checkpoints are job-transient: release them
        # even when the job aborts mid-spill
        if ctx.store is not None:
            ctx.store.close()
            ctx.store = None
    _publish_run(ctx)
    _append_history(ctx)
    return ctx


def _thread_rusage() -> tuple[int, float]:
    """``(minor page faults, system seconds)`` of the calling thread where
    the platform keeps them per thread (concurrent served queries then do
    not read each other's), else of the process."""
    if resource is None:
        return 0, 0.0
    usage = resource.getrusage(getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF))
    return usage.ru_minflt, usage.ru_stime


def _append_history(ctx: JoinContext) -> None:
    """Persist this run's RunReport into the duck-typed history sink.

    Runs after :func:`_publish_run` so the stored report carries the
    published metrics, stage rows and any pre-run planner meta (the
    serving layer sets predicted clocks before the run so the stored
    line replays through ``repro.planner.accuracy.replay_reports``).
    """
    history = ctx.cfg.history
    if history is None:
        return
    try:
        history.append_report(ctx.telemetry.report().to_json())
    except Exception as exc:  # observability must never fail a join
        get_logger("repro.joins.pipeline", ctx.telemetry.run_id).warning(
            "run-history append failed: %s", exc
        )


def _publish_run(ctx: JoinContext) -> None:
    """Stock the registry with the run-report artifacts (job epilogue).

    The stages have assigned every number to ``ctx.metrics`` (the result
    count included); this publishes them once, beside the structured
    metas a :class:`~repro.engine.telemetry.RunReport` reads.
    """
    registry = ctx.registry
    metrics = ctx.metrics
    metrics.publish(registry)
    registry.set_meta(
        "job",
        {
            "method": metrics.method or getattr(ctx.cfg, "method", ""),
            "backend": metrics.execution_backend,
            "workers": ctx.num_workers,
            "results": metrics.results,
            "grid_cells": metrics.grid_cells,
        },
    )
    registry.set_meta("cluster.clocks", ctx.cluster.clock_snapshot())
    modelled = {
        "shuffle": metrics.construction_time_model,
        "local_join": metrics.join_time_model,
    }
    dedup = metrics.extra.get("dedup_time_model")
    if dedup is not None:
        modelled["distinct"] = dedup
    registry.set_meta("stage.modelled", modelled)
    if ctx.shuffle.matrix is not None:
        registry.set_meta("shuffle.matrix", ctx.shuffle.matrix.tolist())


# ----------------------------------------------------------------------
# shared construction helpers (single source of truth for the grid
# drivers' replication schemes and LPT cell placement)
# ----------------------------------------------------------------------
def build_grid_assigner(
    grid: Grid,
    method: str,
    stats: GridStatistics | None,
    *,
    input_sizes: tuple[int, int],
    duplicate_free: bool = True,
    marking_ordering: str = "paper",
    metrics: JoinMetrics | None = None,
    tracer: Tracer | None = None,
):
    """Instantiate the replication scheme a grid method requires.

    Returns ``(assigner, pair_types)``; ``pair_types`` is only set for
    the adaptive methods.  Agreement statistics (marked edges, mixed
    triangles, per-side agreement counts) land in ``metrics.extra``; the
    steps run under ``construction.*`` spans of ``tracer``, if given.
    """
    if method in ("lpib", "diff"):
        if stats is None:
            raise ValueError("adaptive methods require sample statistics")
        span = (tracer if tracer is not None else Tracer(enabled=False)).span
        policy = LPiBPolicy() if method == "lpib" else DiffPolicy()
        with span("construction.agreements", cat="construction"):
            pair_types = instantiate_pair_types(grid, stats, policy)
            graph = AgreementGraph(grid, pair_types, stats)
        if duplicate_free:
            with span("construction.marking", cat="construction"):
                report = generate_duplicate_free_graph(graph, marking_ordering)
            if metrics is not None:
                metrics.extra["marked_edges"] = report.marked_edges
                metrics.extra["mixed_triangles"] = report.mixed_triangles
        with span("construction.tables", cat="construction"):
            assigner = AdaptiveAssigner(grid, graph)
        if metrics is not None:
            counts = graph.agreement_counts()
            metrics.extra["agreements_r"] = counts[Side.R]
            metrics.extra["agreements_s"] = counts[Side.S]
            for side in Side:
                metrics.extra[f"armed_cells_{side.value.lower()}"] = int(
                    np.count_nonzero(assigner.armed_cells[side])
                )
        return assigner, pair_types
    if method == "uni_r":
        return UniversalAssigner(grid, Side.R), None
    if method == "uni_s":
        return UniversalAssigner(grid, Side.S), None
    if method == "eps_grid":
        len_r, len_s = input_sizes
        smaller = Side.R if len_r <= len_s else Side.S
        return UniversalAssigner(grid, smaller), None
    raise ValueError(f"unknown method {method!r}; choose from {GRID_METHODS}")


def record_armed_points(
    metrics: JoinMetrics, assigner, side: Side, cells: np.ndarray, idxs: np.ndarray
) -> None:
    """``assign_armed_points_<side>``: how many points of one input are native
    to a cell whose tables hold a rule for that input -- the points adaptive
    assign pays for.  Read off ``assign_batch``'s records: a point's native
    record is the first of its run."""
    if not isinstance(assigner, AdaptiveAssigner):
        return
    native = np.empty(len(idxs), dtype=bool)
    native[:1] = True
    np.not_equal(idxs[1:], idxs[:-1], out=native[1:])
    native &= assigner.armed_cells[side][cells]
    metrics.extra[f"assign_armed_points_{side.value.lower()}"] = int(np.count_nonzero(native))


def adaptive_lpt_costs(
    grid: Grid,
    stats: GridStatistics,
    pair_types: Mapping | None,
    replicated: Side | None,
) -> np.ndarray:
    """Estimated join cost of every cell for LPT (Sect. 6.2).

    The paper's estimate is the product of the points of each input that
    will *eventually* be in the cell -- natives plus expected replicas.
    Replica inflow per border is read off the sample statistics, using the
    agreement types (adaptive methods) or the universally replicated input
    (PBSM baselines).
    """
    pairs = grid.adjacent_pair_arrays()
    agreed_r = None if pair_types is None else agreed_r_mask(pairs, pair_types)
    inflow = stats.replica_inflows(pairs, agreed_r, replicated)
    r_est, s_est = (stats.cell_counts(side) + inflow[side] for side in Side)
    return r_est * s_est


def lpt_partitioner(costs: np.ndarray, num_workers: int) -> np.ndarray:
    """LPT cell -> worker placement (Sect. 6.2): the worker of every cell.

    Cells with a positive estimate are placed by LPT; the rest (empty in
    the sample) go to ``cell % num_workers``.  The paper's LPT assigns
    cells to *workers*: packing into many partitions and round-robining
    them onto workers would systematically stack each round's largest
    cell on worker 0.
    """
    workers = np.arange(len(costs), dtype=np.int64) % num_workers
    placed = np.flatnonzero(costs > 0)
    workers[placed] = lpt_assignment(costs[placed], num_workers)
    return workers


def hash_cell_workers(num_cells: int, num_partitions: int, num_workers: int) -> np.ndarray:
    """Spark-style hash placement: cell ``c`` is partition ``c % P``, and
    partition ``p`` runs on worker ``p % W``."""
    return np.arange(num_cells, dtype=np.int64) % num_partitions % num_workers


# ----------------------------------------------------------------------
# shuffle: spill + accounting + fetch-fault recovery
# ----------------------------------------------------------------------
@dataclass
class SideRecords:
    """One side's shuffle input: cell assignments over the input arrays.

    ``record_bytes`` is either one serialized size shared by every record
    (points) or a per-record array of sizes paralleling ``cells``
    (objects with extent).
    """

    side: Side
    cells: np.ndarray
    idxs: np.ndarray
    count: int  # native input cardinality (before replication)
    record_bytes: int | np.ndarray


def spill_side_blocks(
    store: BlockStore,
    side: str,
    cells: np.ndarray,
    idxs: np.ndarray,
    src_workers: np.ndarray,
    dst_workers: np.ndarray,
    record_bytes: int | np.ndarray,
    num_workers: int,
) -> None:
    """Spill one side's map output, one block per shuffle edge.

    Mirrors Spark's map-output files: each map executor writes one
    addressable block per reduce destination, so a lost destination input
    can later be healed per source instead of re-read wholesale.

    Blocks are *slice views* into two edge-sorted arrays -- the memory
    tier stores them zero-copy (two gathers total instead of two copies
    per block); only disk spills serialize.
    """
    if len(cells) == 0:
        return
    key = src_workers.astype(np.int64) * num_workers + dst_workers.astype(np.int64)
    order, sorted_key = stable_argsort(key, num_workers * num_workers)
    cells_sorted = cells[order]
    idxs_sorted = idxs[order]
    starts = run_starts(sorted_key)
    uniq = sorted_key[starts]
    bounds = np.append(starts, len(sorted_key))
    sized = np.ndim(record_bytes) != 0
    for i, k in enumerate(uniq):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        src, dst = divmod(int(k), num_workers)
        logical = (
            int(np.sum(record_bytes[order[lo:hi]]))
            if sized
            else (hi - lo) * record_bytes
        )
        store.put(
            BlockId(side, src, dst),
            {
                "cells": cells_sorted[lo:hi],
                "points": idxs_sorted[lo:hi],
            },
            records=hi - lo,
            logical_bytes=logical,
        )


def refetch_blocks(
    store: BlockStore,
    cluster: SimCluster,
    shuffle: ShuffleStats,
    dst: int,
    attempt: int,
    cm: CostModel,
) -> int:
    """Heal one failed fetch from the block store.

    A fetch failure loses the map output of a single source executor
    (Spark's ``FetchFailedException`` names one ``BlockManagerId``); which
    source is lost is a deterministic function of the attempt so every run
    replays identically.  Only that source's blocks are re-pulled --
    served from the spill store at the local read rate -- instead of the
    destination's whole shuffle input.
    """
    sources = store.sources_for(dst)
    if not sources:  # pragma: no cover - read_records_w guards this
        return 0
    lost_src = sources[attempt % len(sources)]
    refetched = 0
    records = 0
    logical = 0
    cost = 0.0
    for side in ("R", "S"):
        try:
            meta, arrays = store.fetch(BlockId(side, lost_src, dst))
        except BlockLost as exc:
            # the spilled file itself is unreadable (truncated/corrupt):
            # same recovery as a dropped block -- regenerate the records
            # from the source split at the remote rate
            meta, arrays = store.meta(BlockId(side, lost_src, dst)), None
            get_logger("repro.joins.pipeline").warning(
                "refetch hit corrupt block: %s", exc
            )
        if meta is None:
            continue  # this side sent nothing along that shuffle edge
        if arrays is not None:
            # served from the spilled block: local re-read
            cost += meta.bytes * cm.local_byte_cost
        else:
            # the block was evicted and dropped: regenerate its records
            # from the source split at the remote rate -- still only this
            # block's share, never the whole input
            cost += meta.bytes * cm.remote_byte_cost
        cost += meta.records * cm.reduce_record_cost
        records += meta.records
        logical += meta.bytes
        refetched += 1
    cluster.add_cost(dst, "block_refetch", cost)
    shuffle.add_refetch(records, logical, blocks=refetched)
    return refetched


class ShuffleStage(Stage):
    """Route every record to its cell's worker, accounting exactly.

    Reads ``records`` (a list of :class:`SideRecords`) and
    ``cell_workers`` (the build stage's int64 cell -> simulated worker
    array); writes ``shuffle_layout``, ``joinable_cells`` (the cells
    present on both sides) and the per-destination read totals fetch
    recovery needs.  Charges the modelled map and shuffle-read costs,
    spills map output as blocks when a store is attached, and grows the
    modelled heap demand.

    ``shuffle_layout`` keeps each side's stable cell sort as a
    ``(cells, bounds, point_idx)`` triple: ``cells`` the ascending
    unique cell ids, ``point_idx`` the side's point indices grouped by
    cell, ``bounds`` (``len(cells) + 1``) delimiting each group.  The
    plan builder consumes it with array ops only.
    """

    name = "shuffle"
    phase = "map_shuffle"

    def run(self, ctx: JoinContext) -> None:
        W = ctx.num_workers
        cm = COST_MODEL
        cluster = ctx.cluster
        records = ctx.data["records"]
        cell_workers = ctx.data["cell_workers"]
        layout: dict[Side, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        worker_heap = np.zeros(W)
        # per-destination-worker shuffle-read totals, kept for
        # fetch-failure recovery: a failed fetch re-reads the worker's
        # whole input (or, with the store, only the missing blocks)
        read_cost_w = np.zeros(W)
        read_records_w = np.zeros(W, dtype=np.int64)
        read_bytes_w = np.zeros(W, dtype=np.int64)
        for rec in records:
            cells, idxs, n = rec.cells, rec.idxs, rec.count
            replicated = len(cells) - n
            if rec.side is Side.R:
                ctx.metrics.replicated_r = replicated
            else:
                ctx.metrics.replicated_s = replicated

            src_workers, map_counts = input_splits(idxs, n, W)
            dst_workers = cell_workers[cells]
            record = rec.record_bytes
            # every integer volume of this side is a view of its W x W
            # (source, destination) matrices
            edge_records, edge_bytes = ctx.shuffle.add_transfers(
                src_workers, dst_workers, record, W
            )
            if ctx.store is not None:
                # spill this side's map output as addressable blocks, one
                # per (source worker, destination worker) shuffle edge
                spill_side_blocks(
                    ctx.store,
                    rec.side.value,
                    cells,
                    idxs,
                    src_workers,
                    dst_workers,
                    record,
                    W,
                )

            # modelled costs: mapping on source workers, reading on
            # destination workers
            for w, count in enumerate(map_counts):
                cluster.add_cost(w, "map", float(count) * cm.map_tuple_cost)
            read_cost = read_seconds(edge_records, edge_bytes, cm, cm.reduce_record_cost)
            dst_records = edge_records.sum(axis=0)
            for w in np.flatnonzero(dst_records):
                cluster.add_cost(int(w), "shuffle_read", float(read_cost[w]))
            read_cost_w += read_cost
            side_bytes = edge_bytes.sum(axis=0)
            read_records_w += dst_records
            read_bytes_w += side_bytes
            worker_heap += side_bytes * cm.heap_expansion

            order, cells_sorted = stable_argsort(cells, len(cell_workers))
            starts = run_starts(cells_sorted)
            layout[rec.side] = (
                cells_sorted[starts],
                np.append(starts, len(cells_sorted)),
                idxs[order],
            )

        # only cells present on both sides join
        ctx.data["joinable_cells"] = np.intersect1d(
            layout[Side.R][0], layout[Side.S][0], assume_unique=True
        )
        ctx.data["shuffle_layout"] = layout
        ctx.data["worker_heap"] = worker_heap
        ctx.data["read_cost_w"] = read_cost_w
        ctx.data["read_records_w"] = read_records_w
        ctx.data["read_bytes_w"] = read_bytes_w
        _assign_shuffle_volumes(ctx)


def _assign_shuffle_volumes(ctx: JoinContext) -> None:
    """Copy the shuffle's four exact volumes into the metrics."""
    m, shuffle = ctx.metrics, ctx.shuffle
    m.shuffle_records, m.shuffle_bytes = shuffle.records, shuffle.bytes
    m.remote_records, m.remote_bytes = shuffle.remote_records, shuffle.remote_bytes


class ShuffleRecoveryStage(Stage):
    """Fetch-fault recovery, the peak heap, and the construction roll-up.

    Injected shuffle-fetch failures: without the block store each failed
    fetch re-reads the worker's whole shuffle input (Spark's
    FetchFailedException retry); with it, a failure loses only one source
    executor's map output and recovery pulls just those blocks.  The data
    itself is intact either way, so only clocks and volumes move.
    """

    name = "shuffle_recovery"
    phase = "map_shuffle"

    def run(self, ctx: JoinContext) -> None:
        cm = COST_MODEL
        cluster = ctx.cluster
        metrics = ctx.metrics
        read_cost_w = ctx.data["read_cost_w"]
        read_records_w = ctx.data["read_records_w"]
        read_bytes_w = ctx.data["read_bytes_w"]

        tracer = ctx.tracer
        fetch_retries = 0
        if ctx.fault_plan is not None:
            for w in range(ctx.num_workers):
                if read_records_w[w] == 0:
                    continue
                attempt = 0
                while ctx.fault_plan.decide("fetch", w, attempt) is not None:
                    if attempt >= ctx.cfg.max_retries:
                        tracer.event(
                            "fetch_failed",
                            cat="recovery",
                            worker=w,
                            attempt=attempt,
                            error_type="ShuffleFetchError",
                            error_message=(
                                f"worker {w} fetch failed "
                                f"{attempt + 1} time(s)"
                            ),
                        )
                        raise ShuffleFetchError(w, attempt + 1)
                    if ctx.store is not None:
                        blocks = refetch_blocks(
                            ctx.store, cluster, ctx.shuffle, w, attempt, cm
                        )
                        tracer.event(
                            "fetch_retry",
                            cat="recovery",
                            worker=w,
                            attempt=attempt,
                            blocks=blocks,
                        )
                    else:
                        cluster.add_cost(w, "fetch_retry", float(read_cost_w[w]))
                        ctx.shuffle.add_refetch(
                            int(read_records_w[w]), int(read_bytes_w[w])
                        )
                        tracer.event(
                            "fetch_retry",
                            cat="recovery",
                            worker=w,
                            attempt=attempt,
                            records=int(read_records_w[w]),
                        )
                    fetch_retries += 1
                    attempt += 1
            metrics.extra["fetch_retries"] = float(fetch_retries)
            metrics.extra["refetch_bytes"] = float(ctx.shuffle.refetch_bytes)
        metrics.blocks_refetched = ctx.shuffle.refetch_blocks
        if ctx.store is not None:
            metrics.blocks_spilled = ctx.store.blocks_spilled
            metrics.extra["spilled_bytes"] = float(ctx.store.spilled_bytes)

        worker_heap = ctx.data["worker_heap"]
        metrics.extra["peak_worker_heap_bytes"] = float(worker_heap.max())
        metrics.construction_time_model = (
            cluster.phase_makespan("map")
            + cluster.phase_makespan("shuffle_read")
            # failed fetches re-read shuffle data before the join can
            # start, so they stretch the construction makespan: whole
            # partitions without the block store, missing blocks with it
            + cluster.phase_makespan("fetch_retry")
            + cluster.phase_makespan("block_refetch")
            # broadcast is a bulk (torrent-style) transfer, not a
            # per-record shuffle read: charged at the bulk byte rate by
            # the construction stage that performed it
            + ctx.data.get("broadcast_time", 0.0)
            + cm.job_overhead
        )


# ----------------------------------------------------------------------
# local join through the fault-tolerant executor
# ----------------------------------------------------------------------
class LocalJoinStage(Stage):
    """Run every joinable cell's kernel through the executor.

    Reads ``side_arrays`` (each side's ``(ids, xs, ys)`` parallel
    arrays), the shuffle's columnar ``shuffle_layout``, ``cell_workers``
    and ``joinable_cells``, and optionally ``origin_array`` (one
    eps-grid anchor per joinable cell); writes the
    packed ``plan`` and the executor's ``report``, and the kernel's role
    split to the metrics (``probe_records``, ``swapped_cells``).  The backend, fault
    plan, retry policy and block store all come from the
    context, so every driver composing this stage is fault tolerant on
    every backend.  ``collect_pairs=False`` counts results without
    writing the pairs (count-only callers: a served ``max_pairs: 0``
    query, ``repro join`` without ``--show-pairs``, benchmark sweeps):
    the report's columns are empty and its ``bounds`` carry the counts.
    """

    name = "local_join"
    phase = "join"

    def __init__(self, kernel_name: str, eps: float, collect_pairs: bool = True):
        self.kernel_name = kernel_name
        self.eps = eps
        self.collect_pairs = collect_pairs

    def run(self, ctx: JoinContext) -> None:
        get_kernel(self.kernel_name)  # fail fast on an unknown kernel
        side_arrays = ctx.data["side_arrays"]
        layout = ctx.data["shuffle_layout"]
        plan = build_execution_plan(
            side_arrays[Side.R],
            side_arrays[Side.S],
            layout[Side.R],
            layout[Side.S],
            ctx.data["cell_workers"].take,
            ctx.data.get("origin_array"),
            cells=ctx.data["joinable_cells"],
        )
        report = execute_plan(
            plan,
            self.kernel_name,
            self.eps,
            backend=ctx.cfg.execution_backend,
            max_workers=ctx.cfg.executor_workers,
            faults=ctx.fault_plan,
            max_retries=ctx.cfg.max_retries,
            task_timeout=ctx.cfg.task_timeout,
            checkpoints=ctx.store if ctx.cfg.checkpoint_cells else None,
            tracer=ctx.tracer,
            collect_pairs=self.collect_pairs,
        )
        ctx.data["plan"] = plan
        ctx.data["report"] = report
        # what the kernel probed with: grid_hash each cell's smaller side,
        # the other kernels R everywhere
        swapped = plan.swapped & (self.kernel_name == "grid_hash")
        probes = np.where(swapped, np.diff(plan.s_offsets), np.diff(plan.r_offsets))
        ctx.metrics.extra["probe_records"] = float(probes.sum())
        ctx.metrics.extra["swapped_cells"] = float(swapped.sum())


class JoinAccountingStage(Stage):
    """Charge the join's modelled and measured clocks; report recovery.

    Reads ``plan``, ``report`` and ``cost_pos`` (one modelled cost per
    plan position, produced by the driver's refine/collect stage).
    Every re-submitted cell recomputes its lineage from the shuffled
    inputs (without checkpoints a retried task re-submits its whole
    group, reproducing the classic ``(attempts - 1) x group cost``
    charge); cells a retry salvaged from checkpoints skip the recompute
    and the avoided cost lands on the informational salvage clock.
    Injected straggler delays stall their worker either way.
    """

    name = "join_accounting"
    phase = "join"

    def run(self, ctx: JoinContext) -> None:
        plan = ctx.data["plan"]
        report = ctx.data["report"]
        cost_pos = ctx.data["cost_pos"]
        cluster = ctx.cluster
        metrics = ctx.metrics

        # a worker's modelled cost accumulates in ascending cell order from
        # 0.0, whatever order its task runs the cells in: one bincount a
        # phase adds in exactly that order, and charges only the workers
        # holding a charged cell
        by_cell = np.argsort(plan.cells, kind="stable")
        workers, cost = plan.workers[by_cell], cost_pos[by_cell]

        def charge(phase: str, seconds: np.ndarray, cells: np.ndarray | slice) -> None:
            owners, W = workers[cells], ctx.num_workers
            total = np.bincount(owners, weights=seconds[cells], minlength=W)
            for w in np.flatnonzero(np.bincount(owners, minlength=W)):
                cluster.add_cost(int(w), phase, float(total[w]))

        charge("join", cost, slice(None))
        for phase, counts in (
            ("recovery", report.resubmit_counts[by_cell]),
            (SALVAGE_PHASE, report.salvage_counts[by_cell]),
        ):
            charge(phase, counts * cost, counts > 0)
        for event in report.fault_events:
            if event.kind == "straggler":
                cluster.add_cost(event.worker, "recovery", event.seconds)

        metrics.candidate_pairs = int(report.candidates.sum())
        metrics.join_time_model = cluster.phase_makespan("join", "recovery")
        metrics.worker_join_costs = cluster.phase_loads("join")
        metrics.execution_backend = ctx.cfg.execution_backend
        metrics.join_wall_makespan = report.wall_makespan
        metrics.worker_join_wall = [
            report.worker_wall.get(w, 0.0) for w in range(ctx.num_workers)
        ]
        metrics.extra["join_wall_total"] = report.wall_total
        metrics.extra["executor_os_workers"] = float(report.os_workers)
        # Serialization/launch overhead term (satellite of the columnar
        # task path): each task attempt pays a fixed submit cost the pure
        # compute model omits -- the measured-vs-modelled gap on the
        # thread backend.  Kept in ``extra`` so the frozen golden clock
        # is untouched; consumers wanting the adjusted clock read it here.
        launch_model = float(report.attempts) * COST_MODEL.task_launch_cost
        metrics.extra["launch_overhead_model"] = launch_model
        metrics.extra["join_time_model_launch_adjusted"] = (
            metrics.join_time_model + launch_model
        )

        # fault-tolerance accounting (the epilogue publishes each field as
        # its ``join.<field>`` gauge)
        metrics.task_attempts = report.attempts
        metrics.task_retries = report.retries
        metrics.speculative_launched = report.speculative_launched
        metrics.speculative_wins = report.speculative_wins
        metrics.recovery_seconds = report.recovery_seconds
        metrics.recovery_time_model = cluster.recovery_time()
        metrics.cells_salvaged = report.cells_salvaged
        metrics.salvaged_seconds = report.salvaged_wall_seconds
        metrics.salvaged_time_model = cluster.salvaged_time()
        metrics.fault_events = len(report.fault_events) + int(
            metrics.extra.get("fetch_retries", 0)
        )
        if report.degraded:
            metrics.fallback_backend = report.backend_used
            metrics.extra["degraded_steps"] = float(len(report.degraded))
        if report.pool_rebuilds:
            metrics.extra["pool_rebuilds"] = float(report.pool_rebuilds)


# ----------------------------------------------------------------------
# deduplication
# ----------------------------------------------------------------------
#: Modelled serialized size of one result pair in the distinct shuffle.
PAIR_BYTES = 16
#: Modelled cost of sort-based distinct per record (Spark's `distinct`
#: repartitions, sorts and compares every result pair).
DISTINCT_RECORD_COST = 1.0e-6


def parallel_distinct(
    r_ids: np.ndarray,
    s_ids: np.ndarray,
    task_spans: tuple[np.ndarray, np.ndarray],
    cluster: SimCluster,
    shuffle: ShuffleStats,
    num_partitions: int,
    cm: CostModel,
) -> tuple[np.ndarray, np.ndarray, float]:
    """A parallel ``distinct`` over result pairs, with cost accounting.

    Models the paper's post-join deduplication operator (Sect. 7.2.7):
    every result pair is shuffled by its key so duplicates co-locate, then
    each partition sorts/uniquifies its pairs.

    ``task_spans`` is ``(workers, bounds)``: the pairs are task-major, and
    ``bounds[i]:bounds[i + 1]`` are the ones worker ``workers[i]``
    produced.  The dedup itself runs batched: each source worker's span
    is ``np.unique``-d locally, then a single k-way merge of the sorted
    key blocks (:func:`~repro.joins.postprocess.merge_sorted_unique`)
    yields the global distinct set -- replacing a full-materialize
    ``np.unique`` over every pair at once, and bit-identical to it.
    """
    from repro.joins.postprocess import (
        merge_sorted_unique,
        pack_pair_keys,
        unpack_pair_keys,
    )

    if len(r_ids) == 0:
        return r_ids, s_ids, 0.0
    workers, bounds = task_spans
    W = cluster.num_workers
    key = pack_pair_keys(r_ids, s_ids)
    dst_workers = (key % num_partitions).astype(np.int64) % W
    edge_records, edge_bytes = shuffle.add_transfers(
        np.repeat(workers, np.diff(bounds)), dst_workers, PAIR_BYTES, W
    )
    cost = read_seconds(edge_records, edge_bytes, cm, DISTINCT_RECORD_COST)
    for w in np.flatnonzero(edge_records.sum(axis=0)):
        cluster.add_cost(int(w), "dedup", float(cost[w]))
    # Batched distinct: per-source-worker local unique, then one k-way
    # merge of the sorted key blocks on the driver.
    blocks = [
        np.unique(key[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]
    uniq_r, uniq_s = unpack_pair_keys(merge_sorted_unique(blocks))
    return uniq_r, uniq_s, cluster.phase_makespan("dedup")


class DistinctStage(Stage):
    """Parallel distinct over the collected pairs (the Table 6 variant).

    Reads ``r_ids``/``s_ids`` and the executor's ``plan``/``report``
    (the pairs are task-major, so each source worker's pairs are one
    span of them); replaces the id arrays with their unique pairs and
    folds the result count, the dedup makespan and the refreshed shuffle
    volumes into the metrics.
    """

    name = "distinct"
    phase = "dedup"

    def __init__(self, num_partitions: int):
        self.num_partitions = num_partitions

    def run(self, ctx: JoinContext) -> None:
        d = ctx.data
        # one span of pairs per task: the report's bounds at the starts of
        # the plan's worker runs
        workers = d["plan"].workers
        starts = run_starts(workers)
        r_ids, s_ids, dedup_time = parallel_distinct(
            d["r_ids"],
            d["s_ids"],
            (workers[starts], d["report"].bounds[np.append(starts, len(workers))]),
            ctx.cluster,
            ctx.shuffle,
            self.num_partitions,
            COST_MODEL,
        )
        d["r_ids"], d["s_ids"] = r_ids, s_ids
        m = ctx.metrics
        m.results = len(r_ids)
        m.join_time_model += dedup_time
        m.extra["dedup_time_model"] = dedup_time
        _assign_shuffle_volumes(ctx)


# ----------------------------------------------------------------------
# generic collect stage shared by drivers that emit kernel pairs as-is
# ----------------------------------------------------------------------
class CollectPairsStage(Stage):
    """Hand out the executor's result columns and price each plan position.

    Writes ``cost_pos`` (``candidates * compare + pairs * emit`` per
    position) and ``r_ids``/``s_ids`` -- the report's columns themselves,
    task-major, not a copy; empty when the local join did not collect --
    and sets ``metrics.results`` (the report's count, collected or not).
    """

    name = "collect"
    phase = "join"

    def run(self, ctx: JoinContext) -> None:
        report = ctx.data["report"]
        cm = COST_MODEL
        pair_counts = np.diff(report.bounds)
        ctx.data["cost_pos"] = (
            report.candidates.astype(np.float64) * cm.compare_cost
            + pair_counts.astype(np.float64) * cm.emit_cost
        )
        ctx.data["r_ids"] = report.r_col
        ctx.data["s_ids"] = report.s_col
        ctx.metrics.results = int(report.bounds[-1])
