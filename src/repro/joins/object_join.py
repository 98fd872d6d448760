"""Distance and intersection joins over objects with extent (Sect. 8).

The paper's framework assigns *points* to cells; its future work asks for
polygons and polylines.  This module extends every grid method to objects
through an **anchor reduction** that provably preserves both properties:

* each object is anchored at its MBR centre; ``radius`` is the farthest
  object point from the anchor;
* if two objects are within ``eps`` of each other, their anchors are
  within ``eps_eff = eps + max_radius_R + max_radius_S``;
* therefore running the (correct, duplicate-free) *point* machinery on
  the anchors with threshold ``eps_eff`` yields a candidate superset in
  which every true pair co-locates in **exactly one** cell;
* per cell, candidates are filtered by MBR distance and refined with the
  exact object distance (or intersection test).

Correctness and duplicate-freeness are inherited from the point
algorithms -- no new corner-case analysis is needed, and the object joins
run under every method (LPiB, DIFF, UNI(R), UNI(S), eps-grid).

An intersection join is the ``eps = 0`` case: anchors join within
``max_radius_R + max_radius_S`` and candidates are refined with the exact
intersection predicate (PBSM's original workload).

The driver composes the shared staged pipeline
(:mod:`repro.joins.pipeline`): the anchor sweep *is* the point
plane-sweep kernel run at ``eps_eff`` over the anchor arrays, so the
shuffle, fault injection, spill, checkpointing and executor backends all
come from the shared stages; only the anchor reduction (construction),
the per-object record sizes (assign) and the exact refinement (a
post-kernel stage over the executor's candidate pairs) are specific to
objects.  The refinement is a pure function of the kernel outputs, so it
replays deterministically over retried, salvaged or speculative attempts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro._checks import check_count
from repro.engine.metrics import COST_MODEL, JoinMetrics
from repro.engine.shuffle import KEY_BYTES
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject, objects_intersect
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics
from repro.joins.distance_join import check_choice
from repro.joins.pipeline import (
    GRID_METHODS,
    ExecutionSettings,
    JoinAccountingStage,
    JoinContext,
    LocalJoinStage,
    ShuffleRecoveryStage,
    ShuffleStage,
    SideRecords,
    Stage,
    build_grid_assigner,
    lpt_partitioner,
    make_context,
    record_armed_points,
    run_staged_join,
)


class ObjectSet:
    """A collection of spatial objects forming one join input."""

    def __init__(self, objects: Sequence[SpatialObject], name: str = ""):
        sides = {obj.side for obj in objects}
        if len(sides) > 1:
            raise ValueError("all objects of a set must belong to one input")
        self.objects = list(objects)
        #: ``None`` for an empty set, which joins to no pairs
        self.side = sides.pop() if sides else None
        self.name = name
        anchors = np.array(
            [obj.anchor() for obj in self.objects], dtype=np.float64
        ).reshape(-1, 2)
        self.ax = np.ascontiguousarray(anchors[:, 0])
        self.ay = np.ascontiguousarray(anchors[:, 1])
        self.radii = np.array([obj.radius() for obj in self.objects])
        boxes = [obj.mbr() for obj in self.objects]
        self.bxmin = np.array([b.xmin for b in boxes])
        self.bymin = np.array([b.ymin for b in boxes])
        self.bxmax = np.array([b.xmax for b in boxes])
        self.bymax = np.array([b.ymax for b in boxes])
        self.record_bytes = np.array(
            [KEY_BYTES + obj.serialized_bytes() for obj in self.objects],
            dtype=np.int64,
        )

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def max_radius(self) -> float:
        return float(self.radii.max())

    def mbr(self) -> MBR:
        return MBR(
            float(self.bxmin.min()),
            float(self.bymin.min()),
            float(self.bxmax.max()),
            float(self.bymax.max()),
        )


#: Bernoulli rate of the anchor sample the join's statistics come from.
SAMPLE_RATE = 0.1


@dataclass(frozen=True, kw_only=True)
class ObjectJoinConfig(ExecutionSettings):
    """Configuration of an object join (mirrors the point JoinConfig).

    The execution surface -- backend choice, fault injection, retries,
    spill and cell checkpointing -- is inherited from
    :class:`~repro.joins.pipeline.ExecutionSettings` and applies to the
    anchor join identically.  The anchor sample's rate is
    :data:`SAMPLE_RATE`, and cells are placed on workers by LPT.
    """

    method: str = "lpib"
    num_workers: int = 12

    def __post_init__(self) -> None:
        super().__post_init__()
        check_choice("method", self.method, GRID_METHODS)
        check_count("num_workers", self.num_workers, 1)


@dataclass
class ObjectJoinResult:
    """Matched object-id pairs plus the job metrics."""

    r_ids: np.ndarray
    s_ids: np.ndarray
    metrics: JoinMetrics

    def __len__(self) -> int:
        return len(self.r_ids)

    def pairs_set(self) -> set[tuple[int, int]]:
        return set(zip(self.r_ids.tolist(), self.s_ids.tolist()))


def _anchor_stats(grid, r, s, rate):
    stats = GridStatistics(grid)
    rng = np.random.default_rng(0)
    for side, objs in ((Side.R, r), (Side.S, s)):
        mask = rng.random(len(objs)) < rate
        if not mask.any():
            mask[:] = True
        stats.add_points(objs.ax[mask], objs.ay[mask], side)
    return stats


class _AnchorReductionStage(Stage):
    """Anchor grid, sample statistics, replication scheme, cell placement."""

    name = "anchor_reduction"
    phase = "construction"

    def __init__(self, r: ObjectSet, s: ObjectSet, eps_eff: float):
        self.r = r
        self.s = s
        self.eps_eff = eps_eff

    def run(self, ctx: JoinContext) -> None:
        cfg: ObjectJoinConfig = ctx.cfg
        r, s = self.r, self.s
        mbr = MBR(
            min(float(r.ax.min()), float(s.ax.min())),
            min(float(r.ay.min()), float(s.ay.min())),
            max(float(r.ax.max()), float(s.ax.max())),
            max(float(r.ay.max()), float(s.ay.max())),
        )
        grid = Grid(mbr, self.eps_eff)
        ctx.metrics.grid_cells = grid.num_cells
        stats = _anchor_stats(grid, r, s, SAMPLE_RATE)
        assigner, _pair_types = build_grid_assigner(
            grid,
            cfg.method,
            stats,
            input_sizes=(len(r), len(s)),
            metrics=ctx.metrics,
        )
        r_count, s_count = stats.cell_count_table().astype(np.float64)
        ctx.data["assigner"] = assigner
        ctx.data["cell_workers"] = lpt_partitioner(r_count * s_count, cfg.num_workers)


class _AnchorAssignStage(Stage):
    """Flat-map every anchor to its cells; per-object record sizes.

    Shuffle inputs carry each object's *index* as its id, so the
    downstream kernel reports candidate pairs as index pairs the exact
    refinement can resolve back to objects.
    """

    name = "assign"
    phase = "map_shuffle"

    def __init__(self, r: ObjectSet, s: ObjectSet):
        self.r = r
        self.s = s

    def run(self, ctx: JoinContext) -> None:
        assigner = ctx.data["assigner"]
        records = []
        for side, objs in ((Side.R, self.r), (Side.S, self.s)):
            cells, idxs = assigner.assign_batch(objs.ax, objs.ay, side)
            record_armed_points(ctx.metrics, assigner, side, cells, idxs)
            records.append(
                SideRecords(side, cells, idxs, len(objs), objs.record_bytes[idxs])
            )
        ctx.data["records"] = records
        ctx.data["side_arrays"] = {
            Side.R: (np.arange(len(self.r), dtype=np.int64), self.r.ax, self.r.ay),
            Side.S: (np.arange(len(self.s), dtype=np.int64), self.s.ax, self.s.ay),
        }


class _ExactRefineStage(Stage):
    """MBR filter + exact predicate over the executor's candidate pairs.

    The anchor sweep (the plane-sweep kernel at ``eps_eff``) already
    gated candidates by anchor distance; this stage filters them by MBR
    distance at the true ``eps`` and decides each survivor with the exact
    (Python-object) predicate -- which is why it runs driver-side, after
    the executor: the predicate closure and the objects it inspects are
    not picklable, but the stage is a pure function of the kernel's index
    pairs, so it replays identically over retried or salvaged attempts.
    """

    name = "exact_refine"
    phase = "join"

    def __init__(
        self,
        r: ObjectSet,
        s: ObjectSet,
        eps: float,
        predicate: Callable[[SpatialObject, SpatialObject], bool],
    ):
        self.r = r
        self.s = s
        self.eps = eps
        self.predicate = predicate

    def run(self, ctx: JoinContext) -> None:
        cm = COST_MODEL
        r, s, eps = self.r, self.s, self.eps
        plan = ctx.data["plan"]
        report = ctx.data["report"]
        cost_pos = np.zeros(plan.num_cells, dtype=np.float64)
        out_r: list[int] = []
        out_s: list[int] = []
        for pos in range(plan.num_cells):
            candidates = int(report.candidates[pos])
            if candidates == 0:
                continue
            ri = report.pair_r[pos]
            sj = report.pair_s[pos]
            # MBR filter at the true eps
            mdx = np.maximum(
                np.maximum(r.bxmin[ri] - s.bxmax[sj], s.bxmin[sj] - r.bxmax[ri]), 0.0
            )
            mdy = np.maximum(
                np.maximum(r.bymin[ri] - s.bymax[sj], s.bymin[sj] - r.bymax[ri]), 0.0
            )
            near = mdx * mdx + mdy * mdy <= eps * eps
            ri, sj = ri[near], sj[near]
            # exact refinement
            exact_checks = len(ri)
            hits = 0
            for i, j in zip(ri.tolist(), sj.tolist()):
                if self.predicate(r.objects[i], s.objects[j]):
                    out_r.append(r.objects[i].pid)
                    out_s.append(s.objects[j].pid)
                    hits += 1
            # refinement on objects is an order of magnitude pricier than
            # on points; charge ten comparisons per exact check
            cost_pos[pos] = (
                candidates * cm.compare_cost
                + exact_checks * 10 * cm.compare_cost
                + hits * cm.emit_cost
            )
        ctx.data["cost_pos"] = cost_pos
        ctx.data["r_ids"] = np.asarray(out_r, dtype=np.int64)
        ctx.data["s_ids"] = np.asarray(out_s, dtype=np.int64)
        ctx.metrics.results = len(out_r)


def object_stages(
    r: ObjectSet,
    s: ObjectSet,
    eps: float,
    eps_eff: float,
    predicate: Callable[[SpatialObject, SpatialObject], bool],
) -> list[Stage]:
    """The stage list :func:`object_join` runs: the anchor sweep IS the
    point plane-sweep kernel at the data-dependent ``eps_eff``."""
    return [
        _AnchorReductionStage(r, s, eps_eff),
        _AnchorAssignStage(r, s),
        ShuffleStage(),
        ShuffleRecoveryStage(),
        LocalJoinStage("plane_sweep", eps_eff),
        _ExactRefineStage(r, s, eps, predicate),
        JoinAccountingStage(),
    ]


def object_join(
    r: ObjectSet,
    s: ObjectSet,
    eps: float,
    predicate: Callable[[SpatialObject, SpatialObject], bool],
    cfg: ObjectJoinConfig | None = None,
) -> ObjectJoinResult:
    """The generic anchored object join; see the module docstring.

    ``eps`` is the object-distance threshold used for the MBR filter
    (``0`` for intersection joins); ``predicate`` decides each candidate
    pair exactly.  The driver runs :func:`object_stages` through
    :func:`run_staged_join`; a join with an empty side returns no pairs.
    """
    cfg = cfg or ObjectJoinConfig()
    metrics = JoinMetrics(
        method=f"object-{cfg.method}",
        eps=eps,
        num_workers=cfg.num_workers,
        num_partitions=8 * cfg.num_workers,
        input_r=len(r),
        input_s=len(s),
    )
    if not (len(r) and len(s)):
        return ObjectJoinResult(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), metrics
        )
    if r.side == s.side:
        raise ValueError("object sets must come from different inputs (R and S)")
    if r.side is not Side.R:
        flipped = object_join(s, r, eps, lambda a, b: predicate(b, a), cfg)
        return ObjectJoinResult(flipped.s_ids, flipped.r_ids, flipped.metrics)
    eps_eff = eps + r.max_radius + s.max_radius
    if not eps_eff > 0:
        raise ValueError("degenerate join: eps and object radii are all zero")
    ctx = make_context(cfg, num_workers=cfg.num_workers, metrics=metrics)
    run_staged_join(object_stages(r, s, eps, eps_eff, predicate), ctx)
    return ObjectJoinResult(ctx.data["r_ids"], ctx.data["s_ids"], metrics)


def object_distance_join(
    r: ObjectSet,
    s: ObjectSet,
    eps: float,
    method: str | None = None,
    **options,
) -> ObjectJoinResult:
    """All object pairs within distance ``eps`` (exact); ``method`` and
    ``options`` left out take :class:`ObjectJoinConfig`'s defaults."""
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    if method is not None:
        options["method"] = method
    cfg = ObjectJoinConfig(**options)
    return object_join(
        r, s, eps, lambda a, b: a.distance_to(b) <= eps, cfg
    )


def object_intersection_join(
    r: ObjectSet,
    s: ObjectSet,
    method: str | None = None,
    **options,
) -> ObjectJoinResult:
    """All intersecting object pairs (PBSM's original workload); ``method``
    and ``options`` left out take :class:`ObjectJoinConfig`'s defaults."""
    if method is not None:
        options["method"] = method
    cfg = ObjectJoinConfig(**options)
    return object_join(r, s, 0.0, objects_intersect, cfg)
