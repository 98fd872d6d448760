"""The parallel epsilon-distance join driver (Algorithm 5 of the paper).

The driver is a composition of :mod:`repro.joins.pipeline` stages:

1. **Grid construction** (``construction``): grid from the data MBR and
   ``eps`` (Sect. 4.1); Bernoulli-sample both inputs, accumulate per-cell
   statistics, instantiate the graph of agreements with the configured
   policy (LPiB/DIFF) and run Algorithm 1 to make it duplicate-free --
   PBSM baselines skip the graph and use universal replication; broadcast
   the grid (plus agreements); place cells on workers by hash or LPT
   (Sect. 6.2).
2. **Spatial mapping of points** (``assign``): every point is flat-mapped
   to the 1-d ids of its assigned cells (Algorithms 2-4).
3. **Shuffle** (shared :class:`~repro.joins.pipeline.ShuffleStage` and
   :class:`~repro.joins.pipeline.ShuffleRecoveryStage`): each
   (cell, tuple) record travels to the worker owning the cell's reduce
   partition; record and remote-read volumes are accounted exactly,
   blocks spill, fetch faults heal.
4. **Local join + refinement** (shared
   :class:`~repro.joins.pipeline.LocalJoinStage` + collect/accounting):
   a per-cell kernel finds and verifies the result pairs through the
   fault-tolerant executor on any backend.
5. **Optional deduplication** (shared
   :class:`~repro.joins.pipeline.DistinctStage`, the Table 6 variant).

The returned :class:`JoinResult` carries the result pairs and a
:class:`~repro.engine.metrics.JoinMetrics` with all reproduction metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.data.pointset import PointSet
from repro.data.sampling import bernoulli_sample
from repro.engine.blockstore import SpillConfig
from repro.engine.faults import FaultPlan
from repro.engine.metrics import CostModel, JoinMetrics
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import KEY_BYTES
from repro.engine.telemetry import Telemetry, Tracer
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics
from repro.joins.pipeline import (
    GRID_METHODS,
    AssignShuffleJoinStage,
    CollectPairsStage,
    DistinctStage,
    JoinAccountingStage,
    JoinContext,
    LocalJoinStage,
    ShuffleRecoveryStage,
    ShuffleStage,
    SideRecords,
    SimulatedOOMError,
    Stage,
    adaptive_lpt_costs,
    build_grid_assigner,
    lpt_partitioner,
    make_context,
    run_staged_join,
)
from repro.joins.plan import PhysicalPlan, PlanInputs, distance_plan
from repro.replication.assign import AdaptiveAssigner

__all__ = [
    "GRID_METHODS",
    "JoinConfig",
    "JoinResult",
    "SimulatedOOMError",
    "distance_join",
    "join_with_method",
    "config_variants",
    "paper_default_config",
]


@dataclass(frozen=True)
class JoinConfig:
    """Configuration of one parallel distance-join job."""

    eps: float
    method: str = "lpib"
    sample_rate: float = 0.03
    num_workers: int = 12
    num_partitions: int | None = None  # defaults to 8 partitions per worker
    cell_assignment: str = "lpt"  # "lpt" or "hash" (Sect. 6.2 / Table 7)
    resolution_factor: float = 2.0  # grid cell side in multiples of eps
    duplicate_free: bool = True  # False: unmarked graph + distinct (Table 6)
    local_kernel: str = "plane_sweep"
    seed: int = 0
    mbr: MBR | None = None
    cost_model: CostModel = field(default_factory=CostModel)
    #: When False, result pairs are counted but their ids are not
    #: materialized -- used by large benchmark sweeps.  Requires
    #: ``duplicate_free`` (the distinct step needs the ids).
    collect_pairs: bool = True
    #: Algorithm 1 edge-examination order (see
    #: :data:`repro.agreements.marking.ORDERINGS`); only the ablation
    #: benchmark deviates from the paper's order.
    marking_ordering: str = "paper"
    #: Simulated executor heap in bytes (``None`` disables the memory
    #: model).  If any worker's deserialized shuffle input exceeds it, the
    #: job dies with :class:`SimulatedOOMError` -- the fate of the
    #: eps-grid baseline at x4 data in the paper (Fig. 13).
    memory_limit_bytes: int | None = None
    #: How the local-join phase actually runs on the host: ``serial``,
    #: ``threads`` or ``processes`` (see :mod:`repro.engine.executor`).
    #: All backends produce bit-identical result pairs; the measured
    #: per-worker wall clocks land in the metrics either way.
    execution_backend: str = "serial"
    #: OS-level worker cap for the parallel backends (``None``: one per
    #: host CPU, at most one per simulated worker).
    executor_workers: int | None = None
    #: Deterministic fault injection (a :class:`FaultPlan` or a spec
    #: string in the ``--faults`` grammar; ``None`` disables injection).
    faults: FaultPlan | str | None = None
    #: Per-task retry budget for failed local-join tasks and shuffle
    #: fetches (see :class:`~repro.engine.executor.RetryPolicy`).
    max_retries: int = 2
    #: Straggler threshold (seconds) for speculative re-execution;
    #: ``None`` disables straggler detection.
    task_timeout: float | None = None
    #: Launch speculative copies of detected stragglers.
    speculative: bool = True
    #: Fall back processes -> threads -> serial when a backend cannot
    #: finish a task inside its retry budget.
    degrade: bool = True
    #: First retry's backoff in seconds (doubles per retry, capped).
    retry_backoff: float = 0.01
    #: Shuffle-spill tier for the block store (see
    #: :mod:`repro.engine.blockstore`): ``none`` keeps the legacy
    #: behaviour (failed fetches re-read whole partitions), ``memory`` or
    #: ``disk`` spill map outputs as addressable blocks so fetch-fault
    #: recovery pulls only the missing blocks.
    spill: str = "none"
    #: Directory for spilled blocks and checkpoints (the ``disk`` tier,
    #: or the ``memory`` tier's eviction target); a temporary directory
    #: when ``None``.  Requires a spill tier.
    spill_dir: str | None = None
    #: Snapshot per-cell partial join results so a killed or timed-out
    #: reduce attempt salvages finished cells and re-runs only the
    #: remainder.  Requires a spill tier.
    checkpoint_cells: bool = False
    #: Memory-tier byte budget before LRU eviction (``None``: unbounded).
    spill_memory_limit_bytes: int | None = None
    #: ``cluster`` backend: worker daemons to spawn (``None``: one per
    #: host CPU, at most one per task).
    cluster_daemons: int | None = None
    #: ``cluster`` backend: seconds between daemon liveness beats.
    heartbeat_interval: float = 0.05
    #: ``cluster`` backend: heartbeat silence (seconds) after which a
    #: daemon is declared lost and its tasks re-run elsewhere.
    heartbeat_timeout: float = 2.0
    #: ``cluster`` backend: per-fetch socket timeout for remote shuffle
    #: block reads.
    fetch_timeout: float = 2.0
    #: The run's :class:`~repro.engine.telemetry.Telemetry` bundle (span
    #: tracer + metrics registry); ``None`` keeps tracing disabled.
    telemetry: Telemetry | None = None
    #: Cross-run construction-artifact cache plus the key naming this
    #: run's build inputs (see ``ExecutionSettings.artifact_cache`` /
    #: :func:`repro.serving.fingerprint.grid_partition_key`).  Set by the
    #: serving layer; one-shot runs leave both ``None`` and rebuild.
    artifact_cache: Any = field(default=None, repr=False, compare=False)
    artifact_key: tuple | None = field(default=None, repr=False, compare=False)
    #: Run-history sink (``repro.obs.RunHistory`` or anything with
    #: ``append_report``); the pipeline appends this run's RunReport at
    #: job end.  ``None`` (the default) keeps history off.
    history: Any = field(default=None, repr=False, compare=False)
    #: Run assign -> shuffle -> local-join fused in columnar mode: the
    #: shuffle's sort feeds the plan builder directly (no per-cell group
    #: dicts), task payloads ship shared-memory slice descriptors, and
    #: kernels with batched variants join a whole task per call.  Result
    #: pairs and metrics are bit-identical to the discrete path
    #: (``fused=False``, the reference the equivalence tests pin).
    fused: bool = True

    def resolved_partitions(self) -> int:
        return self.num_partitions or 8 * self.num_workers

    def spill_config(self) -> SpillConfig:
        """The validated block-store configuration for this job."""
        return SpillConfig(
            tier=self.spill,
            spill_dir=self.spill_dir,
            memory_limit_bytes=self.spill_memory_limit_bytes,
            checkpoint_cells=self.checkpoint_cells,
        )


@dataclass
class JoinResult:
    """Result pairs plus the job's metrics."""

    r_ids: np.ndarray
    s_ids: np.ndarray
    metrics: JoinMetrics

    def __len__(self) -> int:
        return len(self.r_ids)

    def pairs_set(self) -> set[tuple[int, int]]:
        """The results as a set of ``(rid, sid)`` tuples."""
        return set(zip(self.r_ids.tolist(), self.s_ids.tolist()))


class _BuildPartitionStage(Stage):
    """Grid, sampling, agreements, broadcast, partitioner (Sect. 4-6).

    Split into a pure :meth:`_build` (everything deterministic in the
    inputs and the config) and a :meth:`_replay` that applies the built
    bundle's side effects to the run context.  *Both* the cold and the
    warm path go through ``_replay``, so a cache hit reproduces the
    metrics -- including ``extra``-dict key order -- and the dataflow of
    a cold run bit for bit.  The cache is consulted only when the
    settings carry both an ``artifact_cache`` and an ``artifact_key``
    (the serving layer's injection; one-shot runs always build).
    """

    name = "build_partition"
    phase = "construction"

    def __init__(self, r: PointSet, s: PointSet):
        self.r = r
        self.s = s

    def run(self, ctx: JoinContext) -> None:
        cache = ctx.settings.artifact_cache
        key = ctx.settings.artifact_key
        bundle = None
        if cache is not None and key is not None:
            bundle = cache.get(key)
        if bundle is None:
            bundle = self._build(ctx.cfg, ctx.tracer)
            if cache is not None and key is not None:
                with ctx.tracer.span("artifact_cache.put", cat="construction"):
                    cache.put(key, bundle)
        self._replay(ctx, bundle)

    def _build(self, cfg: JoinConfig, tracer: Tracer) -> dict:
        """Construct the grid/stats/assigner/partitioner bundle, each step
        under a ``construction`` child span of the stage."""
        r, s = self.r, self.s
        mbr = cfg.mbr or r.mbr().union(s.mbr())
        factor = 1.0 if cfg.method == "eps_grid" else cfg.resolution_factor
        grid = Grid(mbr, cfg.eps, factor)

        needs_stats = cfg.method in ("lpib", "diff") or cfg.cell_assignment == "lpt"
        stats = None
        if needs_stats:
            with tracer.span("construction.sample_stats", cat="construction"):
                stats = GridStatistics(grid)
                r_sample = bernoulli_sample(r, cfg.sample_rate, cfg.seed)
                s_sample = bernoulli_sample(s, cfg.sample_rate, cfg.seed + 1)
                stats.add_points(r_sample.xs, r_sample.ys, Side.R)
                stats.add_points(s_sample.xs, s_sample.ys, Side.S)

        # a scratch metrics object captures the agreement statistics (and
        # their insertion order) so _replay can restate them verbatim
        scratch = JoinMetrics()
        assigner, pair_types = build_grid_assigner(
            grid,
            cfg.method,
            stats,
            input_sizes=(len(r), len(s)),
            duplicate_free=cfg.duplicate_free,
            marking_ordering=cfg.marking_ordering,
            metrics=scratch,
            tracer=tracer,
        )

        # Algorithm 5 broadcasts the grid (plus agreements) to every
        # executor.
        from repro.engine.broadcast import (
            agreement_broadcast_bytes,
            broadcast_cost,
            grid_broadcast_bytes,
        )

        if isinstance(assigner, AdaptiveAssigner):
            payload = agreement_broadcast_bytes(assigner.graph)
        else:
            payload = grid_broadcast_bytes(grid)
        bcast = broadcast_cost(payload, cfg.num_workers)

        if cfg.cell_assignment == "lpt":
            replicated = getattr(assigner, "replicated", None)
            with tracer.span("construction.lpt", cat="construction"):
                costs = adaptive_lpt_costs(grid, stats, pair_types, replicated)
                partitioner = lpt_partitioner(costs, cfg.num_workers)
        elif cfg.cell_assignment == "hash":
            partitioner = HashPartitioner(cfg.resolved_partitions())
        else:
            raise ValueError(f"unknown cell assignment {cfg.cell_assignment!r}")

        return {
            "grid": grid,
            "assigner": assigner,
            "partitioner": partitioner,
            "extra": dict(scratch.extra),
            "bcast": bcast,
        }

    def _replay(self, ctx: JoinContext, bundle: dict) -> None:
        """Apply a built (or cached) bundle's side effects to the run."""
        grid = bundle["grid"]
        ctx.metrics.grid_cells = grid.num_cells
        for name, value in bundle["extra"].items():
            ctx.metrics.extra[name] = value
        bcast = bundle["bcast"]
        ctx.metrics.extra["broadcast_bytes"] = float(bcast.total_bytes)
        # the broadcast *time* depends on the run's cost model, which is
        # not part of the artifact key -- recompute it per run
        ctx.data["broadcast_time"] = bcast.time_model(
            ctx.cost_model.local_byte_cost
        )
        ctx.data["grid"] = grid
        ctx.data["assigner"] = bundle["assigner"]
        ctx.data["partitioner"] = bundle["partitioner"]


class _AssignStage(Stage):
    """Flat-map every point to its assigned cells (Algorithms 2-4)."""

    name = "assign"
    phase = "map_shuffle"

    def __init__(self, r: PointSet, s: PointSet):
        self.r = r
        self.s = s

    def run(self, ctx: JoinContext) -> None:
        assigner = ctx.data["assigner"]
        records = []
        for side, ps in ((Side.R, self.r), (Side.S, self.s)):
            cells, idxs = assigner.assign_batch(ps.xs, ps.ys, side)
            records.append(
                SideRecords(side, cells, idxs, len(ps), KEY_BYTES + ps.record_bytes)
            )
        ctx.data["records"] = records
        ctx.data["side_arrays"] = {
            Side.R: (self.r.ids, self.r.xs, self.r.ys),
            Side.S: (self.s.ids, self.s.xs, self.s.ys),
        }


class _OriginsStage(Stage):
    """Anchor each joinable cell's eps-grid at its MBR origin.

    Bucket boundaries -- and hence candidate counts -- become independent
    of which input is R and of the points (natives or replicas) actually
    present in the cell.
    """

    name = "origins"
    phase = "join"

    def run(self, ctx: JoinContext) -> None:
        grid: Grid = ctx.data["grid"]
        layout = ctx.data.get("shuffle_layout")
        if layout is not None:
            # Fused/columnar mode: one vectorized origin computation over
            # the joinable cell array (the same sorted intersection the
            # plan builder derives).  ``cx * cell_w`` matches the scalar
            # path bit for bit: int -> float64 conversion is exact here
            # and the multiply/add are the same IEEE ops.
            cells = np.intersect1d(
                layout[Side.R][0], layout[Side.S][0], assume_unique=True
            )
            cx = (cells % grid.nx).astype(np.float64)
            cy = (cells // grid.nx).astype(np.float64)
            origin = np.empty((len(cells), 2), dtype=np.float64)
            origin[:, 0] = grid.mbr.xmin + cx * grid.cell_w
            origin[:, 1] = grid.mbr.ymin + cy * grid.cell_h
            ctx.data["origin_array"] = origin
            return
        groups = ctx.data["groups_by_side"]
        r_groups, s_groups = groups[Side.R], groups[Side.S]
        origins = {}
        for cell in r_groups:
            if cell in s_groups:
                cx, cy = grid.cell_pos(cell)
                origins[cell] = (
                    grid.mbr.xmin + cx * grid.cell_w,
                    grid.mbr.ymin + cy * grid.cell_h,
                )
        ctx.data["origins"] = origins


def distance_join(
    r: PointSet,
    s: PointSet,
    cfg: JoinConfig,
    plan: PhysicalPlan | None = None,
) -> JoinResult:
    """Execute a parallel epsilon-distance join on the simulated cluster.

    The driver *builds a physical plan* from ``cfg`` (or replays a
    supplied ``plan``, which must describe the same choices as ``cfg``)
    and hands the plan's stage list to :func:`run_staged_join`.
    """
    if cfg.eps <= 0:
        raise ValueError("eps must be positive")
    if not cfg.collect_pairs and not cfg.duplicate_free:
        raise ValueError("the deduplicating variant requires collect_pairs")
    if plan is None:
        plan = distance_plan(cfg)
    elif plan.join_kind != "distance":
        raise ValueError(
            f"cannot replay a {plan.join_kind!r} plan on the distance driver"
        )
    metrics = JoinMetrics(
        method=cfg.method,
        eps=cfg.eps,
        num_workers=cfg.num_workers,
        num_partitions=cfg.resolved_partitions(),
        input_r=len(r),
        input_s=len(s),
    )
    ctx = make_context(cfg, num_workers=cfg.num_workers, metrics=metrics)
    run_staged_join(plan.stages(PlanInputs(r=r, s=s)), ctx)
    r_ids, s_ids = ctx.data["r_ids"], ctx.data["s_ids"]
    metrics.results = len(r_ids) if cfg.collect_pairs else ctx.data["result_count"]
    return JoinResult(r_ids, s_ids, metrics)


def join_with_method(
    r: PointSet, s: PointSet, eps: float, method: str, **overrides
) -> JoinResult:
    """Convenience wrapper: run one method with default configuration."""
    cfg = JoinConfig(eps=eps, method=method, **overrides)
    return distance_join(r, s, cfg)


def config_variants(base: JoinConfig, **changes) -> JoinConfig:
    """A modified copy of a configuration (dataclass ``replace`` wrapper)."""
    return replace(base, **changes)


def paper_default_config(eps: float = 0.012, **overrides) -> JoinConfig:
    """The paper's default experimental setup (Table 3, bold values)."""
    defaults = dict(
        eps=eps,
        method="lpib",
        sample_rate=0.03,
        num_workers=12,
        num_partitions=96,
    )
    defaults.update(overrides)
    return JoinConfig(**defaults)
