"""The parallel epsilon-distance join driver (Algorithm 5 of the paper).

The driver is a composition of :mod:`repro.joins.pipeline` stages,
written out once in :func:`distance_stages`:

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

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro._checks import check_count
from repro.agreements.marking import ORDERINGS
from repro.data.pointset import PointSet, joint_mbr
from repro.data.sampling import sample_pair
from repro.engine.metrics import COST_MODEL, JoinMetrics
from repro.engine.shuffle import KEY_BYTES
from repro.engine.telemetry import Tracer
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics
from repro.joins.pipeline import (
    GRID_METHODS,
    CollectPairsStage,
    DistinctStage,
    ExecutionSettings,
    JoinAccountingStage,
    JoinContext,
    LocalJoinStage,
    ShuffleRecoveryStage,
    ShuffleStage,
    SideRecords,
    Stage,
    adaptive_lpt_costs,
    build_grid_assigner,
    hash_cell_workers,
    lpt_partitioner,
    make_context,
    record_armed_points,
    run_staged_join,
)
from repro.joins.local import LOCAL_KERNELS
from repro.joins.plan import PhysicalPlan
from repro.replication.assign import AdaptiveAssigner

__all__ = [
    "CELL_ASSIGNMENTS",
    "GRID_METHODS",
    "JoinConfig",
    "JoinResult",
    "PLAN_FIELDS",
    "distance_join",
    "distance_stages",
    "config_variants",
    "paper_default_config",
]


#: How cells are placed on workers: by LPT over their estimated join
#: costs, or by hashing the cell id (Sect. 6.2 / Table 7).
CELL_ASSIGNMENTS = ("lpt", "hash")

#: The plan dimensions -- what a planner searches and a caller may pin --
#: and the :class:`JoinConfig` field each one sets.
PLAN_FIELDS = {
    "method": "method",
    "resolution_factor": "resolution_factor",
    "kernel": "local_kernel",
    "workers": "num_workers",
    "backend": "execution_backend",
}


# The field checks every join config shares; each raises a ``ValueError``
# naming its field.
def check_choice(name: str, value: Any, choices) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}; got {value!r}")


def check_eps(eps: float) -> None:
    # ``not eps > 0`` rather than ``eps <= 0``: NaN fails every comparison;
    # an infinite eps is a cross product, not an error
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")


def check_sizing(
    num_workers: int, sample_rate: float, num_partitions: int | None = None
) -> None:
    check_count("num_workers", num_workers, 1)
    if num_partitions is not None and not num_partitions >= 1:
        raise ValueError(
            f"num_partitions must be >= 1 (or None: 8 per worker), got {num_partitions}"
        )
    if not 0 < sample_rate <= 1:
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")


@dataclass(frozen=True, kw_only=True)
class JoinConfig(ExecutionSettings):
    """Configuration of one parallel distance-join job.

    The fields below say *what* is joined and how it is partitioned;
    how the job executes (backend, faults, retries, spill, telemetry,
    history) is inherited from
    :class:`~repro.joins.pipeline.ExecutionSettings`.  This is the one
    declaration of a distance join's parameters: the CLI reads its
    defaults here, the server builds one per query, and construction
    checks every field (a ``ValueError`` naming the field).
    """

    eps: float
    method: str = "lpib"
    sample_rate: float = 0.03
    num_workers: int = 12
    num_partitions: int | None = None  # defaults to 8 partitions per worker
    cell_assignment: str = "lpt"  # one of CELL_ASSIGNMENTS
    resolution_factor: float = 2.0  # grid cell side in multiples of eps
    duplicate_free: bool = True  # False: unmarked graph + distinct (Table 6)
    local_kernel: str = "grid_hash"
    seed: int = 0
    #: When False, result pairs are counted but their ids are not
    #: materialized -- set by every caller that reads only a count
    #: (served ``max_pairs: 0``, ``repro join`` without ``--show-pairs``,
    #: benchmark sweeps).  Requires ``duplicate_free`` (the distinct step
    #: needs the ids).
    collect_pairs: bool = True
    #: Algorithm 1 edge-examination order (see
    #: :data:`repro.agreements.marking.ORDERINGS`); only the ablation
    #: benchmark deviates from the paper's order.
    marking_ordering: str = "paper"
    #: Cross-run construction-artifact cache (the serving layer's
    #: :class:`~repro.serving.cache.ArtifactCache`, or anything with
    #: ``get(key)``/``put(key, value)``).  When set together with
    #: ``artifact_key``, the build stage consults it before building the
    #: grid/statistics/agreement-graph/placement bundle and publishes
    #: what it builds -- a warm run replays the cached bundle with
    #: bit-identical metrics and dataflow.  ``None`` keeps the one-shot
    #: behaviour: build everything, every run.
    artifact_cache: Any = field(default=None, repr=False, compare=False)
    #: The cache key naming this run's construction inputs (dataset
    #: fingerprints + every config field the build depends on; see
    #: :func:`repro.serving.fingerprint.grid_partition_key`).  Set with
    #: ``artifact_cache`` or not at all.
    artifact_key: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_eps(self.eps)
        check_choice("method", self.method, GRID_METHODS)
        check_choice("local_kernel", self.local_kernel, sorted(LOCAL_KERNELS))
        check_choice("cell_assignment", self.cell_assignment, CELL_ASSIGNMENTS)
        check_choice("marking_ordering", self.marking_ordering, ORDERINGS)
        check_sizing(self.num_workers, self.sample_rate, self.num_partitions)
        if not (math.isfinite(self.resolution_factor) and self.resolution_factor >= 1):
            raise ValueError(
                f"resolution_factor must be finite and >= 1 (the resolution "
                f"factor must be >= 1: a cell is at least eps wide), "
                f"got {self.resolution_factor}"
            )
        if not self.collect_pairs and not self.duplicate_free:
            raise ValueError(
                "collect_pairs=False requires duplicate_free: the "
                "deduplicating variant needs the pair ids"
            )

    def resolved_partitions(self) -> int:
        return self.num_partitions or 8 * self.num_workers


@dataclass
class JoinResult:
    """Result pairs plus the job's metrics; ``r_ids`` / ``s_ids`` may be
    views into pooled memory (:mod:`repro.engine.slabs`) that stay valid,
    slices of them too, for as long as they are referenced (a long-lived
    holder should copy: a view pins a candidate-sized slab)."""

    r_ids: np.ndarray
    s_ids: np.ndarray
    metrics: JoinMetrics

    def __len__(self) -> int:
        return len(self.r_ids)

    def pairs_set(self) -> set[tuple[int, int]]:
        """The results as a set of ``(rid, sid)`` tuples."""
        return set(zip(self.r_ids.tolist(), self.s_ids.tolist()))


class _BuildPartitionStage(Stage):
    """Grid, sampling, agreements, broadcast, cell placement (Sect. 4-6).

    Split into a pure :meth:`_build` (everything deterministic in the
    inputs and the config) and a :meth:`_replay` that applies the built
    bundle's side effects to the run context.  *Both* the cold and the
    warm path go through ``_replay``, so a cache hit reproduces the
    metrics -- including ``extra``-dict key order -- and the dataflow of
    a cold run bit for bit.  The cache is consulted only when the config
    carries both an ``artifact_cache`` and an ``artifact_key`` (the
    serving layer's injection; one-shot runs always build).
    """

    name = "build_partition"
    phase = "construction"

    def __init__(self, r: PointSet, s: PointSet):
        self.r = r
        self.s = s

    def run(self, ctx: JoinContext) -> None:
        cache, key = ctx.cfg.artifact_cache, ctx.cfg.artifact_key
        # cache and key only work as a pair: a key without a cache (or a
        # cache without a key) would silently skip warm replay, which is
        # indistinguishable from a cache bug at the call site -- fail fast
        if key is not None and cache is None:
            raise ValueError(
                "artifact_key is set but artifact_cache is None: warm replay "
                "needs the cache that owns the keyed bundle (pass both, or "
                "neither for a one-shot build)"
            )
        if cache is not None and key is None:
            raise ValueError(
                "artifact_cache is set but artifact_key is None: without a key "
                "naming the build inputs the cache can neither be consulted "
                "nor filled (pass both, or neither for a one-shot build)"
            )
        bundle = cache.get(key) if cache is not None else None
        if bundle is None:
            bundle = self._build(ctx.cfg, ctx.tracer)
            if cache is not None:
                with ctx.tracer.span("artifact_cache.put", cat="construction"):
                    cache.put(key, bundle)
        self._replay(ctx, bundle)

    def _build(self, cfg: JoinConfig, tracer: Tracer) -> dict:
        """Construct the grid/stats/assigner/placement bundle, each step
        under a ``construction`` child span of the stage."""
        r, s = self.r, self.s
        mbr = joint_mbr(r, s)
        factor = 1.0 if cfg.method == "eps_grid" else cfg.resolution_factor
        grid = Grid(mbr, cfg.eps, factor)

        needs_stats = cfg.method in ("lpib", "diff") or cfg.cell_assignment == "lpt"
        stats = None
        if needs_stats:
            with tracer.span("construction.sample_stats", cat="construction"):
                stats = GridStatistics(grid)
                r_sample, s_sample = sample_pair(r, s, cfg.sample_rate, cfg.seed)
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
                cell_workers = lpt_partitioner(costs, cfg.num_workers)
        else:
            cell_workers = hash_cell_workers(
                grid.num_cells, cfg.resolved_partitions(), cfg.num_workers
            )

        return {
            "grid": grid,
            "assigner": assigner,
            "cell_workers": cell_workers,
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
        ctx.data["broadcast_time"] = bcast.time_model(COST_MODEL.local_byte_cost)
        ctx.data["grid"] = grid
        ctx.data["assigner"] = bundle["assigner"]
        ctx.data["cell_workers"] = bundle["cell_workers"]


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
            record_armed_points(ctx.metrics, assigner, side, cells, idxs)
            records.append(
                SideRecords(side, cells, idxs, len(ps), KEY_BYTES + ps.record_bytes)
            )
        ctx.data["records"] = records
        ctx.data["side_arrays"] = {
            Side.R: (self.r.ids, self.r.xs, self.r.ys),
            Side.S: (self.s.ids, self.s.xs, self.s.ys),
        }


class _OriginsStage(Stage):
    """Anchor each joinable cell's ``grid_hash`` bands at its MBR origin.

    Band boundaries -- and hence candidate counts -- become independent
    of the points (natives or replicas) actually present in the cell.
    """

    name = "origins"
    phase = "join"

    def run(self, ctx: JoinContext) -> None:
        grid: Grid = ctx.data["grid"]
        # one vectorized origin computation over the joinable cell array
        cells = ctx.data["joinable_cells"]
        cx = (cells % grid.nx).astype(np.float64)
        cy = (cells // grid.nx).astype(np.float64)
        origin = np.empty((len(cells), 2), dtype=np.float64)
        origin[:, 0] = grid.mbr.xmin + cx * grid.cell_w
        origin[:, 1] = grid.mbr.ymin + cy * grid.cell_h
        ctx.data["origin_array"] = origin


def distance_stages(cfg: JoinConfig, r: PointSet, s: PointSet) -> list[Stage]:
    """Algorithm 5 as the stage list :func:`distance_join` runs."""
    stages = [
        _BuildPartitionStage(r, s),
        _AssignStage(r, s),
        ShuffleStage(),
        ShuffleRecoveryStage(),
        _OriginsStage(),
        LocalJoinStage(cfg.local_kernel, cfg.eps, cfg.collect_pairs),
        CollectPairsStage(),
        JoinAccountingStage(),
    ]
    if not cfg.duplicate_free:
        stages.append(DistinctStage(cfg.resolved_partitions()))
    return stages


def distance_join(
    r: PointSet,
    s: PointSet,
    cfg: JoinConfig,
    plan: PhysicalPlan | None = None,
) -> JoinResult:
    """Execute a parallel epsilon-distance join on the simulated cluster.

    Runs :func:`distance_stages` of ``cfg`` through
    :func:`run_staged_join`.  A ``plan`` must be the plan of a config
    equal to ``cfg``; any other plan is rejected, not half-obeyed.
    """
    if plan is not None and plan.config != cfg:
        raise ValueError(
            "the distance driver runs only the plan of its own config"
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
    run_staged_join(distance_stages(cfg, r, s), ctx)
    return JoinResult(ctx.data["r_ids"], ctx.data["s_ids"], metrics)


def config_variants(base: JoinConfig, **changes) -> JoinConfig:
    """A modified copy of a configuration (dataclass ``replace`` wrapper)."""
    return replace(base, **changes)


def paper_default_config(eps: float = 0.012, **overrides) -> JoinConfig:
    """The paper's default experimental setup (Table 3, bold values), with
    PBSM's plane-sweep local join."""
    defaults = dict(
        eps=eps,
        method="lpib",
        sample_rate=0.03,
        num_workers=12,
        num_partitions=96,
        local_kernel="plane_sweep",
    )
    defaults.update(overrides)
    return JoinConfig(**defaults)
