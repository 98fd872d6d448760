"""Kernel x backend equivalence matrix for the execution backends.

Every local kernel must produce the same result-pair set and the same
candidate count whether the local-join phase runs serially, on a thread
pool, or on a process pool -- and the parallel backends must be
*bit-identical* to serial (same arrays, same order), since the executor
stitches per-cell outputs back in plan order.
"""

import numpy as np
import pytest

from repro.data.generators import gaussian_clusters
from repro.data.pointset import PointSet
from repro.engine.executor import BACKENDS, build_execution_plan, execute_plan
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.local import LOCAL_KERNELS
from tests.conftest import cell_layout

EPS = 0.02
KERNELS = sorted(LOCAL_KERNELS)


def uniform_points(n, seed, name):
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(0, 1, n), rng.uniform(0, 1, n), name=name)


WORKLOADS = {
    "gaussian": lambda: (
        gaussian_clusters(700, seed=31, name="R"),
        gaussian_clusters(650, seed=32, name="S"),
    ),
    "uniform": lambda: (
        uniform_points(700, 33, "R"),
        uniform_points(650, 34, "S"),
    ),
}


def run(r, s, kernel, backend):
    cfg = JoinConfig(
        eps=EPS,
        method="lpib",
        num_workers=4,
        local_kernel=kernel,
        execution_backend=backend,
        executor_workers=2,
    )
    return distance_join(r, s, cfg)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_backends_bit_identical(workload, kernel):
    r, s = WORKLOADS[workload]()
    reference = run(r, s, kernel, "serial")
    assert len(reference) > 0  # a vacuous matrix proves nothing
    for backend in BACKENDS:
        res = run(r, s, kernel, backend)
        assert np.array_equal(res.r_ids, reference.r_ids), (kernel, backend)
        assert np.array_equal(res.s_ids, reference.s_ids), (kernel, backend)
        assert res.metrics.candidate_pairs == reference.metrics.candidate_pairs
        assert res.metrics.results == reference.metrics.results
        assert res.metrics.execution_backend == backend
        # the modelled clocks must not depend on how the phase really ran
        assert res.metrics.join_time_model == pytest.approx(
            reference.metrics.join_time_model
        )


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_agree_through_driver(kernel):
    r, s = WORKLOADS["gaussian"]()
    reference = run(r, s, "plane_sweep", "serial").pairs_set()
    assert run(r, s, kernel, "processes").pairs_set() == reference


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_intersection(backend):
    """Disjoint inputs: every backend returns the empty result."""
    r = uniform_points(80, 41, "R")
    far = uniform_points(80, 42, "S")
    # shift keeps S disjoint from R (gap 0.5 >> eps) without blowing up
    # the eps-grid resolution, which tracks the joint MBR extent
    s = PointSet(far.xs + 1.5, far.ys + 1.5, name="S")
    for kernel in KERNELS:
        res = run(r, s, kernel, backend)
        assert len(res) == 0
        assert res.metrics.results == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_duplicate_coordinates(backend):
    """Every point at one location: the full cross product results."""
    n = 40
    r = PointSet(np.full(n, 0.5), np.full(n, 0.5), name="R")
    s = PointSet(np.full(n, 0.5), np.full(n, 0.5), name="S")
    for kernel in KERNELS:
        res = run(r, s, kernel, backend)
        assert len(res) == n * n, (kernel, backend)


@pytest.mark.parametrize("backend", ("threads", "processes"))
def test_plan_level_equivalence(backend):
    """The executor itself (no driver): results stitch back in plan order."""
    rng = np.random.default_rng(7)
    n = 600
    r = (np.arange(n, dtype=np.int64), rng.uniform(0, 1, n), rng.uniform(0, 1, n))
    s = (np.arange(n, dtype=np.int64), rng.uniform(0, 1, n), rng.uniform(0, 1, n))

    def layout(xs, ys):
        return cell_layout((xs > 0.5).astype(np.int64) * 2 + (ys > 0.5))

    plan = build_execution_plan(
        r, s, layout(r[1], r[2]), layout(s[1], s[2]), lambda cells: cells % 2
    )
    ref = execute_plan(plan, "grid_hash", EPS, backend="serial")
    par = execute_plan(plan, "grid_hash", EPS, backend=backend, max_workers=2)
    assert np.array_equal(ref.candidates, par.candidates)
    for a, b in zip(ref.pair_r, par.pair_r):
        assert np.array_equal(a, b)
    for a, b in zip(ref.pair_s, par.pair_s):
        assert np.array_equal(a, b)
    assert set(par.worker_wall) == {0, 1}
    assert par.wall_makespan >= 0.0


def test_unknown_backend_rejected():
    r, s = WORKLOADS["uniform"]()
    with pytest.raises(ValueError, match="backend"):
        run(r, s, "plane_sweep", "gpu")


def test_concurrent_acquires_build_one_shared_pool():
    """Two runs that want the same resident pool at once get one pool,
    built once: the second waits for the first's build and hits it."""
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    from repro.engine import executor

    built = []

    def factory():
        time.sleep(0.05)  # hold the window open for the other thread
        built.append(ThreadPoolExecutor(max_workers=2))
        return built[-1]

    counters = ("acquires", "created", "hits")
    executor.enable_shared_pools()
    try:
        before = executor.shared_pool_stats()
        gate = threading.Barrier(2)
        got = []

        def acquire():
            gate.wait()
            got.append(executor._acquire_pool("threads", 2, factory))

        threads = [threading.Thread(target=acquire) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = executor.shared_pool_stats()
    finally:
        executor.disable_shared_pools()
    assert got == [(built[0], True)] * 2
    assert len(built) == 1
    assert {k: after[k] - before[k] for k in counters} == {
        "acquires": 2, "created": 1, "hits": 1,
    }
