"""Bernoulli sampling of point sets.

Algorithm 5 samples both inputs (the paper uses 3%) to populate the grid
statistics that drive agreement instantiation and LPT load balancing.
"""

from __future__ import annotations

import numpy as np

from repro.data.pointset import PointSet


def bernoulli_sample(points: PointSet, rate: float, seed: int = 0) -> PointSet:
    """Independently keep each point with probability ``rate``."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    if rate == 1.0:
        return points
    rng = np.random.default_rng(seed)
    mask = rng.random(len(points)) < rate
    return points.subset(mask, name=f"{points.name}~{rate:g}")


def sample_pair(
    r: PointSet, s: PointSet, rate: float, seed: int
) -> tuple[PointSet, PointSet]:
    """The two inputs' samples a join's statistics are built from: R drawn
    with ``seed``, S with ``seed + 1``.  The planner's cost model and the
    drivers draw the same pair, so its predictions describe the join."""
    return bernoulli_sample(r, rate, seed), bernoulli_sample(s, rate, seed + 1)
