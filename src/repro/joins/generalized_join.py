"""Adaptive replication on arbitrary rectangulations (Sect. 8).

The paper's marking machinery (Sect. 4.5) is derived for the uniform
grid's 2x2 quartets.  To generalize agreements to other partitioning
schemes -- QuadTrees in particular -- this driver replaces marking with
**ownership reporting**, a per-pair duplicate-avoidance rule in the
spirit of the reference-point technique the paper cites [Dittrich &
Seeger, ICDE 2000]:

* For every pair of touching leaves an *agreement* picks the input
  replicated across that border, exactly as in the paper; a point is
  replicated to a touching leaf within ``eps`` only when the agreement
  matches its input.
* Every leaf can evaluate, from a result pair's coordinates alone, which
  leaf *owns* the pair: the common native leaf, or -- for pairs spanning
  two leaves -- the leaf the agreed input flows into.  A leaf emits only
  the pairs it owns.

**Correctness.**  The owner always holds both points: for natives ``A !=
B`` with agreement R, the S point is native in the owner ``B`` and the R
point is within ``eps`` of ``B`` (it is within ``eps`` of a point of
``B``), so the agreement replicates it there.  Touching is guaranteed
because in a min-side-``2 eps`` dyadic rectangulation two non-touching
leaves are at least ``2 eps`` apart.  **Duplicate-freeness** holds
because ownership is a pure function of the pair, evaluated identically
in every leaf.  The tests validate both properties point-level against
the oracle on grids and QuadTrees, including hypothesis-driven random
configurations.

**Trade-off vs the paper's marking.**  Ownership reporting needs no
corner-case machinery and even skips the supplementary-area replication,
at the price of evaluating the ownership rule for every locally found
pair -- per-result work the paper's scheme avoids by construction.  The
modelled cost accounts for it, and ``bench_ext_generalized.py``
quantifies the trade on the same workload.

The driver composes the shared staged pipeline
(:mod:`repro.joins.pipeline`): rectangulation + agreements are its
construction stage, the replication loop its assign stage, and ownership
reporting a post-kernel stage over the executor's per-leaf pairs -- a
pure function of the kernel outputs, so it replays deterministically
over retried, salvaged or speculative attempts.  Shuffle accounting,
fault injection, spill, checkpointing and the executor backends are the
shared stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.pointset import PointSet
from repro.data.sampling import bernoulli_sample
from repro.engine.metrics import CostModel, JoinMetrics
from repro.engine.shuffle import KEY_BYTES
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.joins.distance_join import JoinResult
from repro.joins.pipeline import (
    ExecutionSettings,
    JoinAccountingStage,
    JoinContext,
    SideRecords,
    Stage,
    lpt_partitioner,
    make_context,
    run_staged_join,
)
from repro.joins.plan import PhysicalPlan, PlanInputs, generalized_plan
from repro.partitioning.rect_partition import (
    GridRectPartition,
    QuadtreeRectPartition,
    RectPartition,
)

#: ``clone`` is Patel & DeWitt's clone join (paper Sect. 2): *both*
#: inputs are replicated to every leaf within eps, and each pair is
#: reported by the leaf containing its midpoint -- the reference-point
#: technique in its purest form.  It needs no agreements at all, at the
#: price of roughly doubling PBSM's replication.
METHODS = ("lpib", "diff", "uni_r", "uni_s", "clone")
PARTITIONS = ("grid", "quadtree")


@dataclass(frozen=True, kw_only=True)
class GeneralizedJoinConfig(ExecutionSettings):
    """Configuration of the generalized adaptive join.

    The execution surface -- backend choice, fault injection, retries,
    spill and cell checkpointing -- is inherited from
    :class:`~repro.joins.pipeline.ExecutionSettings` and applies to the
    generalized join identically.
    """

    eps: float
    partition: str = "quadtree"
    method: str = "lpib"
    quadtree_capacity: int = 64
    sample_rate: float = 0.05
    num_workers: int = 12
    seed: int = 0
    mbr: MBR | None = None
    cost_model: CostModel = field(default_factory=CostModel)


class _PartitionStats:
    """Per-leaf and per-border sample counts for agreement decisions."""

    def __init__(self, part: RectPartition):
        self.part = part
        self.totals = {s: np.zeros(part.num_leaves, dtype=np.int64) for s in Side}
        self.boundary: dict[tuple[int, int], dict[Side, int]] = {}

    def add_sample(self, xs: np.ndarray, ys: np.ndarray, side: Side) -> None:
        part = self.part
        for x, y in zip(xs.tolist(), ys.tolist()):
            native = part.leaf_of(x, y)
            self.totals[side][native] += 1
            for target in part.targets_within_eps(x, y, native):
                key = (min(native, target), max(native, target))
                entry = self.boundary.setdefault(key, {Side.R: 0, Side.S: 0})
                entry[side] += 1

    def decide(self, method: str, a: int, b: int) -> Side | None:
        if method == "clone":
            return None  # both inputs cross every border
        if method == "uni_r":
            return Side.R
        if method == "uni_s":
            return Side.S
        if method == "lpib":
            entry = self.boundary.get((min(a, b), max(a, b)), {Side.R: 0, Side.S: 0})
            if entry[Side.R] != entry[Side.S]:
                return Side.R if entry[Side.R] < entry[Side.S] else Side.S
            # fall through to the totals tie-break, as in the grid LPiB
        r = int(self.totals[Side.R][a] + self.totals[Side.R][b])
        s = int(self.totals[Side.S][a] + self.totals[Side.S][b])
        if method == "diff":
            da = abs(int(self.totals[Side.R][a]) - int(self.totals[Side.S][a]))
            db = abs(int(self.totals[Side.R][b]) - int(self.totals[Side.S][b]))
            leaf = a if da >= db else b
            r = int(self.totals[Side.R][leaf])
            s = int(self.totals[Side.S][leaf])
        return Side.R if r <= s else Side.S


def _build_partition(cfg, mbr, r_sample, s_sample) -> RectPartition:
    if cfg.partition == "grid":
        return GridRectPartition(Grid(mbr, cfg.eps))
    if cfg.partition == "quadtree":
        xs = np.concatenate([r_sample.xs, s_sample.xs])
        ys = np.concatenate([r_sample.ys, s_sample.ys])
        return QuadtreeRectPartition(
            mbr, cfg.eps, xs, ys, capacity=cfg.quadtree_capacity
        )
    raise ValueError(f"unknown partition {cfg.partition!r}; choose from {PARTITIONS}")


class _RectangulationStage(Stage):
    """Rectangulation, sample statistics, agreements, LPT placement."""

    name = "rectangulation"
    phase = "construction"

    def __init__(self, r: PointSet, s: PointSet):
        self.r = r
        self.s = s

    def run(self, ctx: JoinContext) -> None:
        cfg: GeneralizedJoinConfig = ctx.cfg
        r, s = self.r, self.s
        mbr = cfg.mbr or r.mbr().union(s.mbr())
        r_sample = bernoulli_sample(r, cfg.sample_rate, cfg.seed)
        s_sample = bernoulli_sample(s, cfg.sample_rate, cfg.seed + 1)
        part = _build_partition(cfg, mbr, r_sample, s_sample)
        ctx.metrics.grid_cells = part.num_leaves
        ctx.metrics.num_partitions = part.num_leaves

        stats = _PartitionStats(part)
        stats.add_sample(r_sample.xs, r_sample.ys, Side.R)
        stats.add_sample(s_sample.xs, s_sample.ys, Side.S)
        agreements = {
            (a, b): stats.decide(cfg.method, a, b) for a, b in part.adjacent_pairs()
        }

        # leaf -> worker via LPT on estimated leaf cost; every leaf is
        # placed, so the explicit partitioner is total over the leaf ids
        costs = {
            leaf: float(stats.totals[Side.R][leaf] * stats.totals[Side.S][leaf])
            for leaf in range(part.num_leaves)
        }
        ctx.data["part"] = part
        ctx.data["agreements"] = agreements
        ctx.data["partitioner"] = lpt_partitioner(costs, cfg.num_workers)


def _pair_type(agreements: dict, a: int, b: int) -> Side | None:
    return agreements[(min(a, b), max(a, b))]


class _ReplicationStage(Stage):
    """Assign every point its native leaf plus the agreed replicas."""

    name = "assign"
    phase = "map_shuffle"

    def __init__(self, r: PointSet, s: PointSet):
        self.r = r
        self.s = s

    def run(self, ctx: JoinContext) -> None:
        part: RectPartition = ctx.data["part"]
        agreements = ctx.data["agreements"]
        natives: dict[Side, np.ndarray] = {}
        records = []
        for side, ps in ((Side.R, self.r), (Side.S, self.s)):
            n = len(ps)
            native = np.fromiter(
                (part.leaf_of(float(x), float(y)) for x, y in zip(ps.xs, ps.ys)),
                dtype=np.int64,
                count=n,
            )
            natives[side] = native
            assignments_cells: list[int] = []
            assignments_idx: list[int] = []
            for i in range(n):
                leaf = int(native[i])
                assignments_cells.append(leaf)
                assignments_idx.append(i)
                x, y = float(ps.xs[i]), float(ps.ys[i])
                for m in part.targets_within_eps(x, y, leaf):
                    agreed = _pair_type(agreements, leaf, m)
                    if agreed is None or agreed == side:
                        assignments_cells.append(m)
                        assignments_idx.append(i)
            cells = np.asarray(assignments_cells, dtype=np.int64)
            idxs = np.asarray(assignments_idx, dtype=np.int64)
            records.append(
                SideRecords(side, cells, idxs, n, KEY_BYTES + ps.record_bytes)
            )
        ctx.data["natives"] = natives
        ctx.data["records"] = records
        ctx.data["side_arrays"] = {
            Side.R: (np.arange(len(self.r), dtype=np.int64), self.r.xs, self.r.ys),
            Side.S: (np.arange(len(self.s), dtype=np.int64), self.s.xs, self.s.ys),
        }


class _OwnershipStage(Stage):
    """Keep each leaf's *owned* pairs; price candidates and ownership.

    Ownership is a pure function of the kernel's index pairs (natives
    plus agreements, or the clone join's midpoint leaf), so it runs
    driver-side after the executor and replays identically over retried
    or salvaged attempts.
    """

    name = "ownership"
    phase = "join"

    def __init__(self, r: PointSet, s: PointSet):
        self.r = r
        self.s = s

    def run(self, ctx: JoinContext) -> None:
        cfg: GeneralizedJoinConfig = ctx.cfg
        cm = ctx.cost_model
        r, s = self.r, self.s
        part: RectPartition = ctx.data["part"]
        agreements = ctx.data["agreements"]
        natives = ctx.data["natives"]
        plan = ctx.data["plan"]
        report = ctx.data["report"]
        cost_pos = np.zeros(plan.num_cells, dtype=np.float64)
        out_r: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        for pos in range(plan.num_cells):
            leaf = int(plan.cells[pos])
            candidates = int(report.candidates[pos])
            ri = report.pair_r[pos]
            sj = report.pair_s[pos]
            if len(ri) == 0:
                cost_pos[pos] = candidates * cm.compare_cost
                continue
            if cfg.method == "clone":
                # clone join: the leaf holding the pair's midpoint reports
                mx = (r.xs[ri] + s.xs[sj]) / 2.0
                my = (r.ys[ri] + s.ys[sj]) / 2.0
                owner = np.fromiter(
                    (part.leaf_of(float(x), float(y)) for x, y in zip(mx, my)),
                    dtype=np.int64,
                    count=len(ri),
                )
            else:
                # ownership: the common native leaf, or the agreement's
                # destination leaf
                na = natives[Side.R][ri]
                nb = natives[Side.S][sj]
                owner = np.where(na == nb, na, -1)
                for k in np.nonzero(owner < 0)[0]:
                    a, b = int(na[k]), int(nb[k])
                    owner[k] = b if _pair_type(agreements, a, b) == Side.R else a
            mine = owner == leaf
            kept = int(np.count_nonzero(mine))
            cost_pos[pos] = (
                candidates * cm.compare_cost
                + len(ri) * cm.compare_cost  # ownership evaluation per pair
                + kept * cm.emit_cost
            )
            if kept:
                out_r.append(r.ids[ri[mine]])
                out_s.append(s.ids[sj[mine]])
        ctx.data["cost_pos"] = cost_pos
        ctx.data["r_ids"] = (
            np.concatenate(out_r) if out_r else np.empty(0, dtype=np.int64)
        )
        ctx.data["s_ids"] = (
            np.concatenate(out_s) if out_s else np.empty(0, dtype=np.int64)
        )


def generalized_distance_join(
    r: PointSet,
    s: PointSet,
    cfg: GeneralizedJoinConfig,
    plan: PhysicalPlan | None = None,
) -> JoinResult:
    """Epsilon-distance join with adaptive replication on any partition.

    The driver builds a physical plan from ``cfg`` (or replays the
    supplied one) and hands its stage list to :func:`run_staged_join`.
    """
    if cfg.eps <= 0:
        raise ValueError("eps must be positive")
    if cfg.method not in METHODS:
        raise ValueError(f"unknown method {cfg.method!r}; choose from {METHODS}")
    if plan is None:
        plan = generalized_plan(cfg)
    elif plan.join_kind != "generalized":
        raise ValueError(
            f"cannot replay a {plan.join_kind!r} plan on the generalized driver"
        )
    metrics = JoinMetrics(
        method=f"{cfg.partition}-{cfg.method}",
        eps=cfg.eps,
        num_workers=cfg.num_workers,
        input_r=len(r),
        input_s=len(s),
    )
    ctx = make_context(cfg, num_workers=cfg.num_workers, metrics=metrics)
    run_staged_join(plan.stages(PlanInputs(r=r, s=s)), ctx)
    r_ids, s_ids = ctx.data["r_ids"], ctx.data["s_ids"]
    metrics.results = len(r_ids)
    return JoinResult(r_ids, s_ids, metrics)
