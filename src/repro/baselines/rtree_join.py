"""A SAMJ baseline: parallel R-tree distance join (Brinkhoff et al.).

The paper's related work (Sect. 2) splits parallel spatial joins into two
families: *multi-assigned single-join* (MASJ -- every grid method in this
library) and *single-assigned multi-join* (SAMJ), whose first
representative joins two R-trees by synchronized traversal [Brinkhoff,
Kriegel & Seeger, ICDE 1996].  This module adds that baseline:

* both inputs are bulk-loaded into STR R-trees (single assignment: every
  point lives in exactly one leaf, so results are duplicate-free by
  construction);
* the *tasks* are the pairs of top-level subtrees whose MBRs are within
  ``eps`` -- a subtree of one input may be paired with several subtrees
  of the other (the defining SAMJ property), so its points are shipped to
  several workers even though no point is ever *assigned* twice;
* each task runs a MINDIST-pruned synchronized traversal down to the
  leaves, where candidate point pairs are refined exactly;
* tasks are placed on workers with LPT, using the subtree sizes as the
  cost estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.rtree import RTree, _Node
from repro.data.pointset import PointSet
from repro.engine.cluster import SimCluster
from repro.engine.lpt import lpt_assignment
from repro.engine.metrics import COST_MODEL, JoinMetrics, PhaseTimer
from repro.engine.shuffle import KEY_BYTES, ShuffleStats
from repro.joins.distance_join import JoinResult


@dataclass(frozen=True)
class SamjConfig:
    """Configuration of the SAMJ R-tree join."""

    eps: float
    num_workers: int = 12
    leaf_capacity: int = 32
    seed: int = 0


def _mbr_within(a: _Node, b: _Node, eps: float) -> bool:
    dx = max(a.mbr.xmin - b.mbr.xmax, b.mbr.xmin - a.mbr.xmax, 0.0)
    dy = max(a.mbr.ymin - b.mbr.ymax, b.mbr.ymin - a.mbr.ymax, 0.0)
    return dx * dx + dy * dy <= eps * eps


def _subtree_entries(node: _Node) -> np.ndarray:
    """All point indices below a node."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            out.append(n.entries)
        else:
            stack.extend(n.children)
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _sync_traversal(
    tree_r: RTree, tree_s: RTree, node_r: _Node, node_s: _Node, eps: float
):
    """Yield candidate leaf pairs of two subtrees within ``eps``."""
    stack = [(node_r, node_s)]
    while stack:
        a, b = stack.pop()
        if not _mbr_within(a, b, eps):
            continue
        if a.is_leaf and b.is_leaf:
            yield a, b
        elif a.is_leaf:
            stack.extend((a, child) for child in b.children)
        elif b.is_leaf:
            stack.extend((child, b) for child in a.children)
        else:
            # descend the node with the larger MBR area (classic heuristic)
            if a.mbr.area >= b.mbr.area:
                stack.extend((child, b) for child in a.children)
            else:
                stack.extend((a, child) for child in b.children)


def rtree_samj_join(r: PointSet, s: PointSet, cfg: SamjConfig) -> JoinResult:
    """Parallel synchronized-traversal R-tree distance join (SAMJ)."""
    if cfg.eps <= 0:
        raise ValueError("eps must be positive")
    cm = COST_MODEL
    cluster = SimCluster(cfg.num_workers)
    shuffle = ShuffleStats()
    timer = PhaseTimer()
    metrics = JoinMetrics(
        method="rtree_samj",
        eps=cfg.eps,
        num_workers=cfg.num_workers,
        input_r=len(r),
        input_s=len(s),
    )

    # ------------------------------------------------------------------
    # construction: bulk-load both trees, derive the task list
    # ------------------------------------------------------------------
    timer.start("construction")
    tree_r = RTree(r.xs, r.ys, leaf_capacity=cfg.leaf_capacity)
    tree_s = RTree(s.xs, s.ys, leaf_capacity=cfg.leaf_capacity)

    def top_level(tree: RTree) -> list[_Node]:
        root = tree.root
        if root is None:  # an empty input: no task, no pairs
            return []
        return root.children if not root.is_leaf else [root]

    tops_r, tops_s = top_level(tree_r), top_level(tree_s)
    tasks = [
        (i, j)
        for i, a in enumerate(tops_r)
        for j, b in enumerate(tops_s)
        if _mbr_within(a, b, cfg.eps)
    ]
    metrics.num_partitions = len(tasks)
    metrics.grid_cells = len(tasks)

    entries_r = {i: _subtree_entries(a) for i, a in enumerate(tops_r)}
    entries_s = {j: _subtree_entries(b) for j, b in enumerate(tops_s)}
    costs = [len(entries_r[i]) * len(entries_s[j]) for i, j in tasks]
    task_worker = lpt_assignment(costs, cfg.num_workers).tolist()

    # ------------------------------------------------------------------
    # shipping: every task receives both subtrees' points.  A subtree
    # paired with k tasks is shipped k times -- the SAMJ trade: no point
    # is assigned twice, but partitions are joined multiply.
    # ------------------------------------------------------------------
    timer.start("map_shuffle")
    record_r = KEY_BYTES + r.record_bytes
    record_s = KEY_BYTES + s.record_bytes
    for t, (i, j) in enumerate(tasks):
        worker = task_worker[t]
        n_r, n_s = len(entries_r[i]), len(entries_s[j])
        # subtrees live where they were built; model a remote fraction of
        # (W - 1) / W as for any hash-placed data
        remote_frac = (cfg.num_workers - 1) / cfg.num_workers
        for count, record in ((n_r, record_r), (n_s, record_s)):
            shuffle.records += count
            shuffle.bytes += count * record
            remote = int(count * remote_frac)
            shuffle.remote_records += remote
            shuffle.remote_bytes += remote * record
            cluster.add_cost(
                worker,
                "shuffle_read",
                remote * record * cm.remote_byte_cost
                + (count - remote) * record * cm.local_byte_cost
                + count * cm.reduce_record_cost,
            )
    for w in range(cfg.num_workers):
        cluster.add_cost(
            w, "map", (len(r) + len(s)) / cfg.num_workers * cm.map_tuple_cost
        )
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
    # synchronized traversal per task
    # ------------------------------------------------------------------
    timer.start("join")
    eps_sq = cfg.eps * cfg.eps
    out_r: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    candidates_total = 0
    for t, (i, j) in enumerate(tasks):
        worker = task_worker[t]
        task_candidates = 0
        task_results = 0
        for leaf_r, leaf_s in _sync_traversal(
            tree_r, tree_s, tops_r[i], tops_s[j], cfg.eps
        ):
            er, es = leaf_r.entries, leaf_s.entries
            task_candidates += len(er) * len(es)
            dx = tree_r.xs[er][:, None] - tree_s.xs[es][None, :]
            dy = tree_r.ys[er][:, None] - tree_s.ys[es][None, :]
            hit_r, hit_s = np.nonzero(dx * dx + dy * dy <= eps_sq)
            if len(hit_r):
                out_r.append(r.ids[er[hit_r]])
                out_s.append(s.ids[es[hit_s]])
                task_results += len(hit_r)
        candidates_total += task_candidates
        cluster.add_cost(
            worker,
            "join",
            task_candidates * cm.compare_cost + task_results * cm.emit_cost,
        )

    r_ids = np.concatenate(out_r) if out_r else np.empty(0, dtype=np.int64)
    s_ids = np.concatenate(out_s) if out_s else np.empty(0, dtype=np.int64)
    metrics.candidate_pairs = candidates_total
    metrics.join_time_model = cluster.phase_makespan("join")
    metrics.worker_join_costs = cluster.phase_loads("join")
    metrics.results = len(r_ids)
    timer.stop()
    metrics.wall_times = dict(timer.phases)
    return JoinResult(r_ids, s_ids, metrics)
