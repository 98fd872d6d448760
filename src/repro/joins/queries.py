"""Distance-based queries built on the adaptive join substrate.

The paper's related work (Sect. 2) surveys the query family around the
epsilon-distance join -- k-nearest-neighbour joins and k-closest-pairs
queries in SpatialHadoop/Sedona-style systems [Garcia-Garcia et al.].
This module implements them *on top of* the adaptive-replication join, so
every query inherits its partitioning, replication and metrics:

* :func:`knn_join` -- for every R point, its k nearest S points.  Runs
  distance joins with an adaptively estimated radius, doubling it for the
  points still unsatisfied; a point with at least ``k`` matches within
  radius ``eps`` provably has its true top-k inside the result.
* :func:`closest_pairs` -- the k closest (r, s) pairs overall, via a
  sample-estimated starting radius with geometric expansion.
* :func:`self_join` -- the epsilon-distance self-join R x R (the MR-DSJ
  workload), reporting each unordered pair once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.data.pointset import PointSet
from repro.joins.distance_join import JoinConfig, distance_join


@dataclass
class QueryResult:
    """Result pairs with distances, plus aggregate execution metrics."""

    r_ids: np.ndarray
    s_ids: np.ndarray
    distances: np.ndarray
    rounds: int
    exec_time_model: float
    shuffle_bytes: int
    replicated_total: int
    extra: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.r_ids)

    def pairs_set(self) -> set[tuple[int, int]]:
        return set(zip(self.r_ids.tolist(), self.s_ids.tolist()))


def _no_pairs(**extra) -> QueryResult:
    """The answer of a query with an empty side: no pairs, no join run."""
    return QueryResult(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0),
        rounds=0, exec_time_model=0.0, shuffle_bytes=0, replicated_total=0,
        extra=extra,
    )


def _given(options: dict, **values) -> dict:
    """``options`` plus the ``values`` a caller set (not ``None``); the
    rest take :class:`JoinConfig`'s defaults."""
    return {**options, **{k: v for k, v in values.items() if v is not None}}


def _pair_distances(r: PointSet, s: PointSet, r_ids, s_ids) -> np.ndarray:
    """Exact distances for result pairs, via id -> row lookups."""
    r_index = {int(pid): i for i, pid in enumerate(r.ids)}
    s_index = {int(pid): i for i, pid in enumerate(s.ids)}
    ri = np.fromiter((r_index[int(p)] for p in r_ids), dtype=np.int64, count=len(r_ids))
    si = np.fromiter((s_index[int(p)] for p in s_ids), dtype=np.int64, count=len(s_ids))
    dx = r.xs[ri] - s.xs[si]
    dy = r.ys[ri] - s.ys[si]
    return np.sqrt(dx * dx + dy * dy)


def _estimate_knn_radius(r: PointSet, s: PointSet, k: int, seed: int) -> float:
    """A starting radius expected to capture ~k neighbours for most points.

    Queries a KD-tree over a thinned S sample: the k-th neighbour in a
    ``phi``-sample sits near the ``k / phi``-th in the full set, so the
    sampled distance overestimates the true k-NN radius -- a safe start.
    """
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    s_n = min(len(s), 2000)
    r_n = min(len(r), 200)
    s_sel = rng.choice(len(s), size=s_n, replace=False)
    r_sel = rng.choice(len(r), size=r_n, replace=False)
    tree = cKDTree(np.column_stack([s.xs[s_sel], s.ys[s_sel]]))
    kk = min(k, s_n)
    dists, _ = tree.query(
        np.column_stack([r.xs[r_sel], r.ys[r_sel]]), k=kk
    )
    dists = np.atleast_2d(dists)
    return float(np.quantile(dists[:, -1], 0.9)) or 1e-6


def knn_join(
    r: PointSet,
    s: PointSet,
    k: int,
    method: str | None = None,
    max_rounds: int = 12,
    seed: int | None = None,
    **options,
) -> QueryResult:
    """For every R point, its ``k`` nearest S points.

    Ties at the k-th distance break deterministically by S id.  Points
    have fewer than ``k`` results only when ``k > |S|``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    k_eff = min(k, len(s))
    if not len(r) or not k_eff:
        return _no_pairs(k=k_eff)
    options = _given(options, method=method, seed=seed)
    eps = _estimate_knn_radius(r, s, k_eff, options.get("seed", JoinConfig.seed))

    best: dict[int, list[tuple[float, int]]] = {int(pid): [] for pid in r.ids}
    pending = r
    rounds = 0
    total_time = 0.0
    total_bytes = 0
    total_repl = 0
    extent = max(r.mbr().union(s.mbr()).width, r.mbr().union(s.mbr()).height)
    while rounds < max_rounds and len(pending):
        rounds += 1
        cfg = JoinConfig(eps=eps, **options)
        res = distance_join(pending, s, cfg)
        total_time += res.metrics.exec_time_model
        total_bytes += res.metrics.shuffle_bytes
        total_repl += res.metrics.replicated_total
        if len(res):
            dists = _pair_distances(pending, s, res.r_ids, res.s_ids)
            for rid, sid, d in zip(
                res.r_ids.tolist(), res.s_ids.tolist(), dists.tolist()
            ):
                best[rid].append((d, sid))
        # a point is satisfied once it holds >= k matches within eps: no
        # unseen point can be closer than its current k-th neighbour
        unsatisfied = [
            pid for pid, found in best.items() if len(found) < k_eff
        ]
        if not unsatisfied:
            break
        if eps > 2 * extent:
            break  # radius already covers the whole space
        eps *= 2.0
        keep = np.isin(r.ids, np.asarray(unsatisfied, dtype=np.int64))
        pending = r.subset(keep, name=f"{r.name}~pending")

    out_r: list[int] = []
    out_s: list[int] = []
    out_d: list[float] = []
    for pid in r.ids.tolist():
        found = sorted(set(best[pid]))[:k_eff]
        for d, sid in found:
            out_r.append(pid)
            out_s.append(sid)
            out_d.append(d)
    return QueryResult(
        np.asarray(out_r, dtype=np.int64),
        np.asarray(out_s, dtype=np.int64),
        np.asarray(out_d),
        rounds=rounds,
        exec_time_model=total_time,
        shuffle_bytes=total_bytes,
        replicated_total=total_repl,
        extra={"k": k_eff},
    )


def closest_pairs(
    r: PointSet,
    s: PointSet,
    k: int,
    method: str | None = None,
    max_rounds: int = 12,
    seed: int | None = None,
    **options,
) -> QueryResult:
    """The ``k`` closest (r, s) pairs over the whole data space."""
    if k < 1:
        raise ValueError("k must be positive")
    k_eff = min(k, len(r) * len(s))
    if not k_eff:
        return _no_pairs()
    options = _given(options, method=method, seed=seed)
    # expected pairs within eps ~ |R| |S| pi eps^2 / area  =>  solve for k
    box = r.mbr().union(s.mbr())
    area = max(box.area, 1e-12)
    eps = math.sqrt(2.0 * k_eff * area / (math.pi * len(r) * len(s)))
    eps = max(eps, 1e-9)
    extent = max(box.width, box.height)

    rounds = 0
    total_time = 0.0
    total_bytes = 0
    total_repl = 0
    while True:
        rounds += 1
        cfg = JoinConfig(eps=eps, **options)
        res = distance_join(r, s, cfg)
        total_time += res.metrics.exec_time_model
        total_bytes += res.metrics.shuffle_bytes
        total_repl += res.metrics.replicated_total
        if len(res) >= k_eff or eps > 2 * extent or rounds >= max_rounds:
            break
        eps *= 2.0

    dists = _pair_distances(r, s, res.r_ids, res.s_ids)
    order = np.lexsort((res.s_ids, res.r_ids, dists))[:k_eff]
    return QueryResult(
        res.r_ids[order],
        res.s_ids[order],
        dists[order],
        rounds=rounds,
        exec_time_model=total_time,
        shuffle_bytes=total_bytes,
        replicated_total=total_repl,
        extra={"final_eps": eps},
    )


def self_join(
    points: PointSet,
    eps: float,
    method: str | None = None,
    seed: int | None = None,
    **options,
) -> QueryResult:
    """Epsilon-distance self-join: unordered pairs (i, j), i < j."""
    options = _given(options, method=method, seed=seed)
    cfg = JoinConfig(eps=eps, **options)
    res = distance_join(points, points.with_payload(points.payload_bytes), cfg)
    mask = res.r_ids < res.s_ids
    r_ids = res.r_ids[mask]
    s_ids = res.s_ids[mask]
    dists = _pair_distances(points, points, r_ids, s_ids)
    return QueryResult(
        r_ids,
        s_ids,
        dists,
        rounds=1,
        exec_time_model=res.metrics.exec_time_model,
        shuffle_bytes=res.metrics.shuffle_bytes,
        replicated_total=res.metrics.replicated_total,
    )
