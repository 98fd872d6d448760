"""High-level public API: one call, any method.

>>> from repro import spatial_join, gaussian_clusters
>>> r = gaussian_clusters(5000, seed=1)
>>> s = gaussian_clusters(5000, seed=2)
>>> result = spatial_join(r, s, eps=0.012, method="lpib")
>>> len(result), result.metrics.replicated_total  # doctest: +SKIP
"""

from __future__ import annotations

import numpy as np

from repro.data.pointset import PointSet
from repro.engine.metrics import JoinMetrics
from repro.joins.distance_join import (
    GRID_METHODS,
    JoinConfig,
    JoinResult,
    distance_join,
)

#: Every join method accepted by :func:`spatial_join`.
ALL_METHODS = (*GRID_METHODS, "sedona", "naive")


def _as_point_set(data, name: str) -> PointSet:
    if isinstance(data, PointSet):
        return data
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be a PointSet or an (n, 2) array")
    return PointSet(arr[:, 0], arr[:, 1], name=name)


def spatial_join(
    r,
    s,
    eps: float,
    method: str = "lpib",
    **options,
) -> JoinResult:
    """Compute the epsilon-distance join of two point collections.

    Args:
        r, s: :class:`~repro.data.pointset.PointSet` instances or
            ``(n, 2)`` coordinate arrays.
        eps: the distance threshold.
        method: one of ``lpib``, ``diff`` (adaptive replication),
            ``uni_r``, ``uni_s``, ``eps_grid`` (PBSM baselines),
            ``sedona`` (QuadTree + R-tree), or ``naive`` (KD-tree oracle).
        **options: forwarded to :class:`~repro.joins.distance_join.JoinConfig`
            (grid methods) or :class:`~repro.baselines.sedona_like.SedonaConfig`.

    Returns:
        A :class:`~repro.joins.distance_join.JoinResult` with the pairs
        and the job metrics.
    """
    r = _as_point_set(r, "r")
    s = _as_point_set(s, "s")
    if method in GRID_METHODS:
        return distance_join(r, s, JoinConfig(eps=eps, method=method, **options))
    if method == "sedona":
        from repro.baselines.sedona_like import SedonaConfig, sedona_join

        return sedona_join(r, s, SedonaConfig(eps=eps, **options))
    if method == "naive":
        return _naive_join(r, s, eps)
    raise ValueError(f"unknown method {method!r}; choose from {ALL_METHODS}")


def _naive_join(r: PointSet, s: PointSet, eps: float) -> JoinResult:
    """Centralized KD-tree join: the ground-truth reference method."""
    from repro.verify.oracle import kdtree_pairs

    pairs = sorted(kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), eps))
    r_ids = np.asarray([p[0] for p in pairs], dtype=np.int64)
    s_ids = np.asarray([p[1] for p in pairs], dtype=np.int64)
    metrics = JoinMetrics(
        method="naive",
        eps=eps,
        num_workers=1,
        input_r=len(r),
        input_s=len(s),
        results=len(pairs),
    )
    return JoinResult(r_ids, s_ids, metrics)
