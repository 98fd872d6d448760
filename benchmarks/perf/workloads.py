"""The four workloads: their parameters and their seeded inputs.

Inputs are made in the benchmark process; the program under test sees
only arrays or ``id,x,y`` files.  The clustered generators draw their
cluster layout *and* their points from one seed, and the result count
of a join swings several-fold with the layout, so a timing taken on
another seed would be a timing of another amount of work.  Each
clustered input therefore keeps a fixed layout (``layout`` below) and
``--seed`` draws which points of it are used: a pool of ``POOL * n``
points is generated on the fixed layout and ``n`` of them are chosen by
the run's seed.  Every seed changes every point; the work stays the same
to within sampling noise.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

POOL = 4


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``join`` (pinned config), ``auto`` (planner per op) or ``served``
    kind: str
    n: int
    eps: float
    #: (generator name, fixed layout seed or None for layout-free data,
    #: generator keyword arguments)
    r_gen: tuple
    s_gen: tuple
    method: str = "lpib"
    kernel: str = "grid_hash"
    workers: int = 4

    def params(self, quick: bool) -> dict:
        n, eps = self.size(quick)
        return {
            "kind": self.kind,
            "n_r": n,
            "n_s": n,
            "eps": eps,
            "r": dict(zip(("generator", "layout_seed", "kwargs"), self.r_gen)),
            "s": dict(zip(("generator", "layout_seed", "kwargs"), self.s_gen)),
            "method": self.method if self.kind != "auto" else "planner",
            "local_kernel": self.kernel if self.kind != "auto" else "planner",
            "num_workers": self.workers if self.kind != "auto" else "planner",
            "execution_backend": "serial",
            "pool_factor": POOL,
        }

    def size(self, quick: bool) -> tuple[int, float]:
        """(n per side, eps); ``--quick`` keeps n * eps^2, so the same regime."""
        if not quick:
            return self.n, self.eps
        return self.n // 8, self.eps * 8 ** 0.5


_WIDE = {"std_range": (0.03, 0.1)}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform_driver", "join", 40_000, 0.0142, ("uniform", None, {}), ("uniform", None, {})),
        Workload("skew_kernel", "join", 12_000, 0.08, ("real_like", 15, {}), ("gaussian_clusters", 16, {})),
        # wide clusters: with the generator's default (tight) clusters the
        # planner's 3% sample flips its choice between near-tied plans from
        # seed to seed, and the op's wall with it
        Workload("auto_plan", "auto", 40_000, 0.012, ("gaussian_clusters", 21, _WIDE), ("gaussian_clusters", 22, _WIDE)),
        Workload("served", "served", 25_000, 0.012, ("real_like", 31, {}), ("gaussian_clusters", 32, {})),
    )
}


def _points(gen: tuple, n: int, seed_seq, name: str):
    from repro.data import generators
    from repro.data.pointset import PointSet

    gen_name, layout, kwargs = gen
    make = getattr(generators, gen_name)
    rng = np.random.default_rng(seed_seq)
    if layout is None:
        return make(n, seed=int(rng.integers(2**31)), name=name, **kwargs)
    pool = make(POOL * n, seed=layout, **kwargs)
    idx = rng.choice(len(pool), n, replace=False)
    return PointSet(pool.xs[idx], pool.ys[idx], name=name)


def make_inputs(w: Workload, seed: int, quick: bool = False):
    """The workload's (R, S) for a seed: same seed, same inputs."""
    n, _ = w.size(quick)
    r_seq, s_seq = np.random.SeedSequence([seed, zlib.crc32(w.name.encode()), n]).spawn(2)
    return _points(w.r_gen, n, r_seq, "R"), _points(w.s_gen, n, s_seq, "S")


def join_config(w: Workload, seed: int, quick: bool = False, **overrides):
    """The pinned ``JoinConfig`` of a ``join``/``served`` workload."""
    from repro.joins.distance_join import JoinConfig

    _, eps = w.size(quick)
    return JoinConfig(
        eps=eps,
        method=w.method,
        local_kernel=w.kernel,
        num_workers=w.workers,
        seed=seed,
        **overrides,
    )
