"""A Sedona-like distributed distance join (the paper's third competitor).

Apache Sedona executes a distance join in three phases (Sect. 7.1):

1. **Partitioning** -- a QuadTree is built on the driver from a sample of
   the input with the fewest objects; its leaves become the partitions.
2. **Assignment** -- the larger input is single-assigned by location; each
   point of the smaller input is expanded by ``eps`` and replicated to all
   leaves its envelope overlaps (the MASJ side).
3. **Local join** -- per partition, an R-tree is built on the larger input
   and probed with the expanded envelopes, refining by true distance.

Because the build side is single-assigned, each result pair is produced
exactly once -- no deduplication pass is needed for point data.  The
defining performance trait the paper observes -- few large partitions,
hence little replication/shuffle but expensive, skewed local joins -- is
an emergent property of this structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.quadtree import QuadTreePartitioner
from repro.baselines.rtree import RTree
from repro.data.pointset import PointSet
from repro.data.sampling import bernoulli_sample
from repro.engine.cluster import SimCluster
from repro.engine.metrics import CostModel, JoinMetrics, PhaseTimer
from repro.engine.shuffle import KEY_BYTES, ShuffleStats
from repro.geometry.mbr import MBR
from repro.joins.distance_join import JoinResult


@dataclass(frozen=True)
class SedonaConfig:
    """Configuration of the Sedona-like join."""

    eps: float
    sample_rate: float = 0.03
    num_workers: int = 12
    #: Target leaf count.  Defaults to one leaf per worker: at the paper's
    #: scale a ~100-leaf QuadTree still yields partitions much larger than
    #: eps; at laptop scale the same regime (leaf side >> eps, hence low
    #: replication but large skewed local joins) needs coarser leaves.
    target_partitions: int | None = None
    rtree_leaf_capacity: int = 32
    max_depth: int = 12
    seed: int = 0
    mbr: MBR | None = None
    cost_model: CostModel = field(default_factory=CostModel)

    def resolved_partitions(self) -> int:
        return self.target_partitions or self.num_workers


def sedona_join(r: PointSet, s: PointSet, cfg: SedonaConfig) -> JoinResult:
    """Run the Sedona-like three-phase distance join."""
    cm = cfg.cost_model
    cluster = SimCluster(cfg.num_workers, cm)
    timer = PhaseTimer()
    metrics = JoinMetrics(
        method="sedona",
        eps=cfg.eps,
        num_workers=cfg.num_workers,
        input_r=len(r),
        input_s=len(s),
    )
    shuffle = ShuffleStats()

    # ------------------------------------------------------------------
    # phase 1: QuadTree partitioning on a sample of the smaller input
    # ------------------------------------------------------------------
    timer.start("construction")
    mbr = cfg.mbr or r.mbr().union(s.mbr())
    probe_is_r = len(r) <= len(s)  # the smaller set is expanded/replicated
    probe, build = (r, s) if probe_is_r else (s, r)
    sample = bernoulli_sample(probe, cfg.sample_rate, cfg.seed)
    target = cfg.resolved_partitions()
    capacity = max(1, math.ceil(max(len(sample), 1) / target))
    # Keep leaves no smaller than ~4 eps: at the paper's scale QuadTree
    # leaves are orders of magnitude larger than eps, and that ratio --
    # not the absolute leaf count -- drives Sedona's low replication.
    extent = min(mbr.width, mbr.height)
    eps_depth = max(1, int(math.floor(math.log2(max(extent / (4 * cfg.eps), 2.0)))))
    qt = QuadTreePartitioner(
        mbr, sample.xs, sample.ys,
        capacity=capacity, max_depth=min(cfg.max_depth, eps_depth),
    )
    metrics.num_partitions = qt.num_leaves
    metrics.grid_cells = qt.num_leaves

    # ------------------------------------------------------------------
    # phase 2: assignment + shuffle
    # ------------------------------------------------------------------
    timer.start("map_shuffle")
    eps = cfg.eps
    w = cfg.num_workers

    def account(ps: PointSet, leaves: np.ndarray, idxs: np.ndarray) -> None:
        n = len(ps)
        src = np.minimum((idxs * w) // max(n, 1), w - 1)
        dst = leaves % w
        record = KEY_BYTES + ps.record_bytes
        shuffle.add_transfers(src, dst, record, w)
        map_counts = np.bincount(
            np.minimum((np.arange(n, dtype=np.int64) * w) // max(n, 1), w - 1),
            minlength=w,
        )
        for wk, count in enumerate(map_counts):
            cluster.add_cost(wk, "map", float(count) * cm.map_tuple_cost)
        remote = src != dst
        cost = np.where(
            remote,
            record * cm.remote_byte_cost + cm.reduce_record_cost,
            record * cm.local_byte_cost + cm.reduce_record_cost,
        )
        for wk in range(w):
            sel = dst == wk
            if sel.any():
                cluster.add_cost(wk, "shuffle_read", float(cost[sel].sum()))

    build_leaves = qt.leaf_of_batch(build.xs, build.ys)
    build_idx = np.arange(len(build), dtype=np.int64)
    account(build, build_leaves, build_idx)

    probe_leaves_list: list[int] = []
    probe_idx_list: list[int] = []
    for i in range(len(probe)):
        x, y = float(probe.xs[i]), float(probe.ys[i])
        for leaf in qt.leaves_overlapping(MBR(x - eps, y - eps, x + eps, y + eps)):
            probe_leaves_list.append(leaf)
            probe_idx_list.append(i)
    probe_leaves = np.asarray(probe_leaves_list, dtype=np.int64)
    probe_idx = np.asarray(probe_idx_list, dtype=np.int64)
    account(probe, probe_leaves, probe_idx)

    replicated_probe = len(probe_leaves) - len(probe)
    if probe_is_r:
        metrics.replicated_r = replicated_probe
    else:
        metrics.replicated_s = replicated_probe
    metrics.shuffle_records = shuffle.records
    metrics.shuffle_bytes = shuffle.bytes
    metrics.remote_records = shuffle.remote_records
    metrics.remote_bytes = shuffle.remote_bytes
    metrics.construction_time_model = (
        cluster.phase_makespan("map")
        + cluster.phase_makespan("shuffle_read")
        + cm.job_overhead
    )

    # ------------------------------------------------------------------
    # phase 3: per-partition R-tree build + probe
    # ------------------------------------------------------------------
    timer.start("join")
    build_order = np.argsort(build_leaves, kind="stable")
    sorted_leaves = build_leaves[build_order]
    uniq, starts = np.unique(sorted_leaves, return_index=True)
    bounds = np.append(starts, len(sorted_leaves))
    build_groups = {
        int(uniq[i]): build_order[bounds[i] : bounds[i + 1]]
        for i in range(len(uniq))
    }

    probe_order = np.argsort(probe_leaves, kind="stable")
    p_sorted = probe_leaves[probe_order]
    p_uniq, p_starts = np.unique(p_sorted, return_index=True)
    p_bounds = np.append(p_starts, len(p_sorted))

    out_build: list[int] = []
    out_probe: list[int] = []
    candidates_total = 0
    for k in range(len(p_uniq)):
        leaf = int(p_uniq[k])
        b_idx = build_groups.get(leaf)
        if b_idx is None:
            continue
        worker = leaf % w
        tree = RTree(
            build.xs[b_idx], build.ys[b_idx], leaf_capacity=cfg.rtree_leaf_capacity
        )
        # index build cost: n log n per partition
        n_build = len(b_idx)
        cluster.add_cost(
            worker,
            "join",
            n_build * cm.reduce_record_cost * max(1.0, math.log2(n_build + 1)),
        )
        probes = probe_idx[probe_order[p_bounds[k] : p_bounds[k + 1]]]
        for pi in probes:
            hits, inspected = tree.query_within(
                float(probe.xs[pi]), float(probe.ys[pi]), eps
            )
            candidates_total += inspected
            cluster.add_cost(
                worker,
                "join",
                inspected * cm.compare_cost + len(hits) * cm.emit_cost,
            )
            if len(hits):
                out_build.extend(build.ids[b_idx[hits]].tolist())
                out_probe.extend([int(probe.ids[pi])] * len(hits))

    build_ids = np.asarray(out_build, dtype=np.int64)
    probe_ids = np.asarray(out_probe, dtype=np.int64)
    r_ids, s_ids = (probe_ids, build_ids) if probe_is_r else (build_ids, probe_ids)

    metrics.candidate_pairs = candidates_total
    metrics.join_time_model = cluster.phase_makespan("join")
    metrics.worker_join_costs = cluster.phase_loads("join")
    metrics.results = len(r_ids)
    timer.stop()
    metrics.wall_times = dict(timer.phases)
    return JoinResult(r_ids, s_ids, metrics)
