"""Fast performance-regression guards (``-m perfsmoke``, well under 30s).

These run as part of the default tier-1 selection; ``-m perfsmoke``
selects just them.  Timing thresholds are deliberately loose so a guard
trips only on a real algorithmic regression -- e.g. the vectorized
``grid_hash_join`` degrading back to per-point Python loops -- and not
on machine noise; where a count says the same thing (``grid_hash``'s
results per candidate), the count is the guard.
"""

import os
import time

import numpy as np
import pytest

from repro.joins.local import grid_hash_join, plane_sweep_join

EPS = 0.005
N = 20_000


def _cell(seed):
    rng = np.random.default_rng(seed)
    return (
        np.arange(N, dtype=np.int64),
        rng.uniform(0.0, 1.0, N),
        rng.uniform(0.0, 1.0, N),
    )


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.perfsmoke
def test_grid_hash_not_slower_than_plane_sweep():
    """grid_hash on a 20k-point cell must stay within 1.5x of plane_sweep.

    The grid hash examines ~100x fewer candidates than the sweep (three
    eps-bands' x-windows vs. full x-strips) and runs several times
    faster, so anything beyond 1.5x means it lost its vectorization.
    The count below is the sharper guard and repeats exactly: the
    windows cover ``(2 + pi) eps^2`` around a point against the disc's
    ``pi eps^2``, so ~0.61 of the candidates are results.
    """
    r_ids, r_xs, r_ys = _cell(101)
    s_ids, s_xs, s_ys = _cell(102)

    sweep_t, sweep = _best_of(
        lambda: plane_sweep_join(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, EPS)
    )
    hash_t, hashed = _best_of(
        lambda: grid_hash_join(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, EPS)
    )

    # identical result pairs, and the hash prunes harder than the sweep
    assert set(zip(hashed[0].tolist(), hashed[1].tolist())) == set(
        zip(sweep[0].tolist(), sweep[1].tolist())
    )
    assert hashed[2] <= sweep[2]
    assert len(hashed[0]) >= 0.55 * hashed[2], (
        f"grid_hash: {len(hashed[0])} results from {hashed[2]} candidates "
        "(< 0.55): the windows no longer hug the eps-disc"
    )

    assert hash_t <= 1.5 * sweep_t, (
        f"vectorized grid_hash took {hash_t:.3f}s vs plane_sweep "
        f"{sweep_t:.3f}s (>1.5x): vectorization regressed"
    )


@pytest.mark.perfsmoke
def test_grid_hash_scales_subquadratically():
    """Doubling the input must not quadruple grid_hash's runtime 3x over.

    A quadratic (all-pairs) regression would scale ~4x per doubling; the
    bucketed kernel scales near-linearly at fixed eps-density.
    """
    def run_at(n):
        rng = np.random.default_rng(n)
        ids = np.arange(n, dtype=np.int64)
        xs, ys = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        t, _ = _best_of(lambda: grid_hash_join(ids, xs, ys, ids, xs, ys, EPS))
        return t

    small, large = run_at(N // 2), run_at(N)
    # linear would be ~2x, quadratic ~4x; allow generous noise headroom
    assert large <= 12.0 * max(small, 1e-4), (
        f"grid_hash: {N//2} pts -> {small:.3f}s but {N} pts -> {large:.3f}s"
    )


@pytest.mark.perfsmoke
def test_block_recovery_beats_full_recompute(tmp_path):
    """Fine-grained recovery must cost less than whole-partition recovery.

    Under identical deterministic fetch+kill faults, the block store plus
    per-cell checkpoints must strictly lower the *modelled* recovery time
    (recovery + fetch_retry + block_refetch makespan) versus the legacy
    full-recompute path.  Modelled clocks are deterministic, so unlike the
    wall-time guards above this comparison has no noise headroom at all.
    """
    from repro.data.generators import gaussian_clusters
    from repro.joins.distance_join import JoinConfig, distance_join

    r = gaussian_clusters(800, seed=71, name="R")
    s = gaussian_clusters(800, seed=72, name="S")
    base = dict(
        eps=0.02, method="lpib", num_workers=3, executor_workers=2,
        faults="fetch:p=1:times=1;kill:p=1:times=1", max_retries=3,
    )
    legacy = distance_join(r, s, JoinConfig(**base)).metrics
    stored = distance_join(
        r, s,
        JoinConfig(**base, spill="disk", spill_dir=str(tmp_path),
                   checkpoint_cells=True),
    ).metrics

    # guard against a vacuous pass: both runs actually recovered
    assert legacy.extra["fetch_retries"] > 0
    assert stored.blocks_refetched > 0
    assert stored.cells_salvaged > 0
    assert legacy.recovery_time_model > 0

    assert stored.recovery_time_model < legacy.recovery_time_model, (
        f"block-level recovery ({stored.recovery_time_model:.6f}s modelled) "
        f"did not beat full recompute ({legacy.recovery_time_model:.6f}s)"
    )
    assert stored.extra["refetch_bytes"] < legacy.extra["refetch_bytes"]


@pytest.mark.perfsmoke
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup guard needs >= 4 host CPUs",
)
def test_parallel_backends_not_slower_than_serial():
    """On a multi-core host, parallel join makespans must not lose to serial.

    Runs a join big enough that per-task compute dwarfs dispatch
    overhead, and compares the measured
    local-join makespan (max over OS workers) across backends, best of
    three.  The 1.1x headroom absorbs scheduler noise; an actual loss
    means the zero-copy task path regressed into serialization-bound
    dispatch.  Skipped below 4 cores, where the premise is false --
    ``BENCH_backend.json`` records the honest single-core numbers.
    """
    from repro.data.generators import gaussian_clusters
    from repro.joins.distance_join import JoinConfig, distance_join

    r = gaussian_clusters(60_000, seed=81, name="R")
    s = gaussian_clusters(60_000, seed=82, name="S")

    def makespan(backend):
        def run():
            cfg = JoinConfig(
                eps=0.01, method="lpib", num_workers=4,
                local_kernel="grid_hash", execution_backend=backend,
                executor_workers=4,
            )
            return distance_join(r, s, cfg).metrics.join_wall_makespan

        best = float("inf")
        for _ in range(3):
            best = min(best, run())
        return best

    serial = makespan("serial")
    for backend in ("threads", "processes"):
        parallel = makespan(backend)
        assert parallel <= 1.1 * serial, (
            f"{backend} join makespan {parallel:.3f}s lost to serial "
            f"{serial:.3f}s on {os.cpu_count()} CPUs"
        )


@pytest.mark.perfsmoke
def test_adaptive_assign_batch_stays_columnar():
    """``AdaptiveAssigner.assign_batch`` within 6x of ``UniversalAssigner``'s.

    20k uniform points on a factor-2 grid: nearly every point is in a
    border area of an armed cell, the worst case for the adaptive pass.
    Both are array passes over the same points -- the adaptive one ORs
    one byte of target bits per point from its compiled tables (~2.5x
    here); a 12-column candidate row sorted per point cost ~8x, a
    per-point Python loop ~33x.
    """
    from repro.data.generators import uniform
    from repro.data.sampling import bernoulli_sample
    from repro.geometry.point import Side
    from repro.grid.grid import Grid
    from repro.grid.statistics import GridStatistics
    from repro.joins.pipeline import build_grid_assigner
    from repro.replication.pbsm import UniversalAssigner

    r, s = uniform(N, seed=201), uniform(N, seed=202)
    grid = Grid(r.mbr().union(s.mbr()), 0.0142, 2.0)
    stats = GridStatistics(grid)
    for side, points in ((Side.R, r), (Side.S, s)):
        sample = bernoulli_sample(points, 0.03, 7)
        stats.add_points(sample.xs, sample.ys, side)
    adaptive, _ = build_grid_assigner(grid, "lpib", stats, input_sizes=(N, N))
    universal = UniversalAssigner(grid, Side.R)

    adaptive_t, (cells, _idxs) = _best_of(lambda: adaptive.assign_batch(r.xs, r.ys, Side.R), 5)
    universal_t, _ = _best_of(lambda: universal.assign_batch(r.xs, r.ys, Side.R), 5)
    assert len(cells) > 1.5 * N, "the input must be dominated by border points"
    assert adaptive_t <= 6 * universal_t, (
        f"adaptive assign_batch {adaptive_t * 1e3:.1f} ms vs universal "
        f"{universal_t * 1e3:.1f} ms on {N} points"
    )


@pytest.mark.perfsmoke
def test_adaptive_assign_pays_only_in_armed_cells():
    """On skewed inputs adaptive ``assign_batch`` <= 3x the universal one.

    20k real_like x 20k gaussian points, ``lpib``, factor 2: LPiB sends
    the minority input across each border, so under a fifth of either
    input sits in a cell whose tables hold a rule for it, and only those
    points reach the table gathers and distance tests (~1.3x here; ~5x
    when every border point built a candidate row).  The armed share is
    the guard that repeats exactly; the timing is a ratio of two calls in
    one process, best of five.
    """
    from repro.data.generators import gaussian_clusters, real_like
    from repro.data.sampling import bernoulli_sample
    from repro.engine.metrics import JoinMetrics
    from repro.geometry.point import Side
    from repro.grid.grid import Grid
    from repro.grid.statistics import GridStatistics
    from repro.joins.pipeline import build_grid_assigner, record_armed_points
    from repro.replication.pbsm import UniversalAssigner

    inputs = {Side.R: real_like(N, seed=31), Side.S: gaussian_clusters(N, seed=32)}
    grid = Grid(inputs[Side.R].mbr().union(inputs[Side.S].mbr()), 0.012, 2.0)
    stats = GridStatistics(grid)
    for side, points in inputs.items():
        sample = bernoulli_sample(points, 0.03, 7)
        stats.add_points(sample.xs, sample.ys, side)
    metrics = JoinMetrics()
    adaptive, _ = build_grid_assigner(grid, "lpib", stats, input_sizes=(N, N), metrics=metrics)

    for side, points in inputs.items():
        universal = UniversalAssigner(grid, side)
        adaptive_t, (cells, idxs) = _best_of(
            lambda: adaptive.assign_batch(points.xs, points.ys, side), 5
        )
        universal_t, _ = _best_of(lambda: universal.assign_batch(points.xs, points.ys, side), 5)
        record_armed_points(metrics, adaptive, side, cells, idxs)
        assert adaptive_t <= 3 * universal_t, (
            f"adaptive assign_batch {adaptive_t * 1e3:.1f} ms vs universal "
            f"{universal_t * 1e3:.1f} ms on {N} {side.value} points"
        )
    armed = {name: value for name, value in metrics.extra.items() if "armed" in name}
    assert armed == {
        "armed_cells_r": 1609,
        "armed_cells_s": 483,
        "assign_armed_points_r": 3093,
        "assign_armed_points_s": 1294,
    }
    assert max(armed["assign_armed_points_r"], armed["assign_armed_points_s"]) < 0.2 * N


@pytest.mark.perfsmoke
def test_shuffle_is_bookkeeping_next_to_assign():
    """The ``shuffle`` stage's wall is at most 0.6x the ``assign`` stage's.

    20k x 20k uniform on a factor-2 grid, ``lpib``.  Assign computes every
    replica; the shuffle only sorts the records by cell and counts them
    per (source, destination) worker, so it reads ~0.35x of assign.  With
    a scalar merge sort, a partition table rebuilt per call and a pass
    per volume it read >= 1.0x.  A ratio of two stages of the same run,
    best of five, because absolute walls move 2x with the host.
    """
    from repro.data.generators import uniform
    from repro.joins.distance_join import JoinConfig, distance_join

    r, s = uniform(N, seed=401), uniform(N, seed=402)
    cfg = JoinConfig(eps=0.0142, method="lpib", local_kernel="grid_hash", num_workers=4)
    runs = [distance_join(r, s, cfg).metrics.stage_times for _ in range(5)]
    shuffle_t, assign_t = min(
        ((t["shuffle"], t["assign"]) for t in runs), key=lambda t: t[0] / t[1]
    )
    assert shuffle_t <= 0.6 * assign_t, (
        f"shuffle {shuffle_t * 1e3:.1f} ms vs assign {assign_t * 1e3:.1f} ms "
        f"on {N} x {N} points"
    )


@pytest.mark.perfsmoke
def test_collect_hands_out_the_columns_the_kernel_wrote():
    """``collect`` is a view: <= 0.1x the ``local_join`` stage's wall.

    40k x 40k uniform, ``lpib``/``grid_hash``, serial: ~1M result pairs.
    The serial tier expands every task into one job-wide column pair, so
    the driver's ``r_ids`` *is* that memory and ``collect`` only prices
    the plan positions (~0.001x).  Concatenating per-cell arrays and
    building a per-pair source-worker column read 0.13-0.36x.  A ratio
    of two stages of the same run, best of five, because absolute walls
    move 2x with the host.
    """
    from repro.data.generators import uniform
    from repro.engine.metrics import JoinMetrics
    from repro.joins.distance_join import JoinConfig
    from repro.joins.pipeline import make_context, run_staged_join
    from repro.joins.plan import PlanInputs, distance_plan

    r, s = uniform(2 * N, seed=501), uniform(2 * N, seed=502)
    cfg = JoinConfig(eps=0.0142, method="lpib", local_kernel="grid_hash", num_workers=12)

    def run():
        metrics = JoinMetrics(
            method=cfg.method, eps=cfg.eps, num_workers=cfg.num_workers,
            input_r=len(r), input_s=len(s),
        )
        ctx = make_context(cfg, num_workers=cfg.num_workers, metrics=metrics)
        return run_staged_join(distance_plan(cfg).stages(PlanInputs(r=r, s=s)), ctx)

    runs = [run() for _ in range(5)]
    for ctx in runs:
        report = ctx.data["report"]
        assert len(ctx.data["r_ids"]) >= 900_000
        assert np.shares_memory(ctx.data["r_ids"], report.r_col)
        assert np.shares_memory(ctx.data["s_ids"], report.s_col)
    collect_t, join_t = min(
        ((t["collect"], t["local_join"]) for t in (c.metrics.stage_times for c in runs)),
        key=lambda t: t[0] / t[1],
    )
    assert collect_t <= 0.1 * join_t, (
        f"collect {collect_t * 1e3:.2f} ms vs local_join {join_t * 1e3:.1f} ms "
        f"on {2 * N} x {2 * N} points"
    )


@pytest.mark.perfsmoke
def test_lockstep_marking_beats_the_per_quartet_loop():
    """``generate_duplicate_free_graph`` >= 5x faster than scalar ``mark_quartet``
    looped over the same graph's views (x40 here).

    41x41 cells = 1 600 quartets with sampled weights: the lockstep pass
    is 12 array steps whatever the quartet count; the loop it replaced
    examines 19 200 edges one by one.  And the steps run only over the
    quartets whose pairs use both types: a graph without any costs <= 0.3x
    one where every quartet is such (~0.1x here).
    """
    import copy

    from repro.agreements.graph import AgreementGraph, PairTypes
    from repro.agreements.marking import (
        MarkingReport,
        generate_duplicate_free_graph,
        mark_quartet,
    )
    from repro.agreements.policies import LPiBPolicy, instantiate_pair_types
    from repro.geometry.mbr import MBR
    from repro.geometry.point import Side
    from repro.grid.grid import Grid
    from repro.grid.statistics import GridStatistics

    grid = Grid(MBR(0.0, 0.0, 1.0, 1.0), 0.012, 2.0)
    assert (grid.nx, grid.ny) == (41, 41)
    rng = np.random.default_rng(301)
    stats = GridStatistics(grid)
    for side in Side:
        stats.add_points(rng.random(3000), rng.random(3000), side)
    unmarked = AgreementGraph(grid, instantiate_pair_types(grid, stats, LPiBPolicy()), stats)

    def lockstep():
        graph = copy.deepcopy(unmarked)
        t0 = time.perf_counter()
        report = generate_duplicate_free_graph(graph)
        return time.perf_counter() - t0, report, graph

    def loop():
        graph = copy.deepcopy(unmarked)
        report = MarkingReport()
        t0 = time.perf_counter()
        for sub in graph.quartets.values():
            report.merge(mark_quartet(sub))
        return time.perf_counter() - t0, report, graph

    lockstep_t, report, graph = min((lockstep() for _ in range(3)), key=lambda run: run[0])
    loop_t, loop_report, loop_graph = loop()
    assert report == loop_report and report.marked_edges > 1000
    assert np.array_equal(graph.marked, loop_graph.marked)
    assert loop_t >= 5 * lockstep_t, (
        f"lockstep {lockstep_t * 1e3:.1f} ms vs per-quartet loop {loop_t * 1e3:.1f} ms "
        f"on {len(graph.quartets)} quartets"
    )

    # the lockstep runs on the quartets that can mark: with one type on every
    # pair there are none, with E pairs of the other type every quartet is one
    pairs = grid.adjacent_pair_arrays()

    def lockstep_on(agreed_r):
        graph = AgreementGraph(grid, PairTypes(grid, agreed_r), stats)
        t0 = time.perf_counter()
        report = generate_duplicate_free_graph(graph)
        return time.perf_counter() - t0, report

    def best_on(agreed_r):
        return min((lockstep_on(agreed_r) for _ in range(5)), key=lambda run: run[0])

    pure_t, pure = best_on(np.ones(len(pairs), dtype=bool))
    mixed_t, mixed = best_on(pairs.facing_a == 0)
    assert pure.marked_edges == pure.mixed_triangles == 0
    assert mixed.mixed_triangles == 4 * mixed.quartets == 6400
    assert pure_t <= 0.3 * mixed_t, (
        f"marking an all-pure graph {pure_t * 1e3:.2f} ms vs an all-mixed one "
        f"{mixed_t * 1e3:.2f} ms on {len(graph.quartets)} quartets"
    )


@pytest.mark.perfsmoke
def test_startup_stays_within_numpy(fresh_python):
    """What a one-shot join imports on top of numpy costs at most 1.5x numpy.

    The statement is the one ``benchmarks/perf`` times as the start-up of
    a one-shot join.  A fresh interpreter imports numpy, then the
    statement, and reports both walls; the guard is their ratio, best of
    five interpreters.  On the 2-vCPU bench host that is 0.05 s over
    numpy's 0.10 s when the host is quiet and 0.15 s over 0.17 s when it
    is not (ratio 0.5-0.9), so an absolute bound (``numpy + 0.12 s``) holds
    in the first hour and fails in the second; the ratio holds in both.
    With package ``__init__`` modules that import every layer eagerly it
    is 3-4 (scipy alone costs twice what numpy does).
    """
    code = (
        "import time; t0 = time.perf_counter(); import numpy; "
        "t1 = time.perf_counter(); "
        "import repro.joins.distance_join, repro.planner.planner; "
        "print(t1 - t0, time.perf_counter() - t1)"
    )
    runs = [tuple(map(float, fresh_python(code).split())) for _ in range(5)]
    numpy_s, extra_s = min(runs, key=lambda run: run[1] / run[0])
    assert extra_s <= 1.5 * numpy_s, (
        f"importing the join and the planner took {extra_s:.3f}s on top of "
        f"numpy's {numpy_s:.3f}s: a layer the join does not run is back on "
        "its import path (tests/test_layering.py names which)"
    )


@pytest.mark.perfsmoke
def test_planner_pick_is_close_to_the_best_measured_plan():
    """``plan_join``'s default pick within 1.15x of the best static plan.

    10k x 10k wide Gaussian clusters on ``serial``: the chosen plan's
    measured wall against the best of ``{lpib, uni_r, uni_s} x {2, 4}`` on
    ``grid_hash`` at the fewest simulated workers.  A ratio of walls taken
    round-robin in one process (one warm-up, best of 5 rounds), so the
    host's speed cancels; no absolute bound.  The modelled cluster clock
    picked 16 simulated workers here and lost ~1.3x.
    """
    from repro.data.generators import gaussian_clusters
    from repro.joins.distance_join import JoinConfig, distance_join
    from repro.planner import DEFAULT_WORKER_CANDIDATES, plan_join

    wide = {"std_range": (0.03, 0.1)}
    r = gaussian_clusters(10_000, seed=91, name="R", **wide)
    s = gaussian_clusters(10_000, seed=92, name="S", **wide)
    eps = 0.024
    planned = plan_join(r, s, eps)
    assert planned.clock == "wall"
    configs = {
        (method, factor): JoinConfig(
            eps=eps, method=method, resolution_factor=factor,
            local_kernel="grid_hash",
            num_workers=min(DEFAULT_WORKER_CANDIDATES),
        )
        for method in ("lpib", "uni_r", "uni_s")
        for factor in (2.0, 4.0)
    }
    configs["chosen"] = planned.config
    walls = dict.fromkeys(configs, float("inf"))
    for round_ in range(6):
        for name, cfg in configs.items():
            t0 = time.perf_counter()
            distance_join(r, s, cfg)
            if round_:  # round 0 warms every config up
                walls[name] = min(walls[name], time.perf_counter() - t0)
    chosen = walls.pop("chosen")
    best = min(walls, key=walls.get)
    assert chosen <= 1.15 * walls[best], (
        f"planner chose {planned.chosen.key()} at {chosen * 1e3:.1f}ms; "
        f"{best} runs in {walls[best] * 1e3:.1f}ms"
    )


_THREE_DENSE_JOINS = """
import resource
import numpy as np
from repro.data.pointset import PointSet
from repro.joins.distance_join import JoinConfig, distance_join

rng = np.random.default_rng(5)
r, s = (
    PointSet(rng.normal(0.5, 0.04, 7000).clip(0, 1), rng.normal(0.5, 0.04, 7000).clip(0, 1), name=name)
    for name in "RS"
)
cfg = JoinConfig(eps=0.02, num_workers=4, local_kernel="grid_hash")
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = distance_join(r, s, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults, int(result.metrics.extra["minflt.local_join"]), result.metrics.candidate_pairs)
    del result
"""


@pytest.mark.perfsmoke
def test_a_repeated_join_touches_no_fresh_result_pages():
    """The third identical join takes <= 10% of the first's minor faults.

    One dense cluster, 7k x 7k: 4.6 M candidates, so each result column is
    37 MB -- above the 32 MiB ceiling of glibc's mmap threshold.  Allocated
    per join, both are mapped, zeroed page by page and unmapped every time
    (third ~ first / 2, the rest being the first join's heap growth);
    leased from the slab pool, the third join writes into pages the first
    one touched.  Run in a child under the two malloc variables
    docs/EXECUTION.md ("Memory") gives library hosts, so the kernel's
    temporaries stay in the heap and the columns are what is counted.  A
    count, not a clock: the host's speed cannot move it.
    """
    import subprocess
    import sys

    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        MALLOC_MMAP_THRESHOLD_=str(32 << 20),
        MALLOC_TRIM_THRESHOLD_=str(64 << 20),
    )
    done = subprocess.run(
        [sys.executable, "-c", _THREE_DENSE_JOINS], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    rows = [tuple(map(int, line.split())) for line in done.stdout.splitlines()]
    (first, first_join, candidates), _, (third, third_join, _) = rows
    assert candidates * 8 > 32 << 20
    # 50: what a quiet join still faults on a host whose pages are huge
    assert third <= max(first // 10, 50), rows
    assert third_join <= first_join <= first, "the stage's share is part of the whole"
