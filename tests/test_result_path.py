"""The result path: pairs are written once, in one order, on every tier.

Four guarantees (``docs/EXECUTION.md``, "Result path"):

1. *Probe / expand* -- ``grid_hash_probe`` + ``grid_hash_expand`` into a
   larger buffer at a non-zero offset yields, per cell, exactly what
   ``grid_hash_join`` returns for that cell alone (pairs, order,
   candidate count), and declines where the one-cell kernel falls back.
2. *Order contract* -- ``r_ids``/``s_ids`` are task-major (ascending
   simulated worker, then R-probe cells before S-probe cells, cells
   ascending inside each run) and identical across
   backends x fault plans x salvage x degradation, for the batched
   kernel and a per-cell one.
3. *Retry overwrites* -- an attempt that dies after writing part of its
   pairs into the job's columns leaves nothing behind.
4. *Views* -- ``report.pair_r[p]`` is what the per-cell kernel returns for
   position ``p``, and the serial tier's columns are handed out as they
   are (no copy between the kernel and ``JoinResult``).
5. *Leases* -- the columns are views of recycled pool slabs
   (:mod:`repro.engine.slabs`): a result is never overwritten while
   anything references it, and its slabs serve the next job once nothing
   does.
6. *Count-only* -- the expand without columns returns the bounds the
   column form does, and ``collect_pairs=False`` reports the same counts,
   candidates and bounds with empty columns and no slab leased.
"""

import gc
import multiprocessing
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.executor as executor
import repro.engine.kernels as kernels
import repro.engine.slabs as slabs
from repro.data.generators import gaussian_clusters
from repro.data.pointset import PointSet
from repro.engine.executor import build_execution_plan, execute_plan
from repro.engine.faults import FaultPlan
from repro.engine.kernels import get_kernel
from repro.engine.metrics import JoinMetrics
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.local import (
    _BLOCK_CANDIDATES,
    grid_hash_expand,
    grid_hash_join,
    grid_hash_probe,
)
from repro.joins.pipeline import make_context, run_staged_join
from repro.joins.plan import PlanInputs, distance_plan
from tests.conftest import cell_layout

EPS = 0.02


# ----------------------------------------------------------------------
# 1. probe + expand == the one-cell kernel, cell by cell
# ----------------------------------------------------------------------
def _task(cells):
    """``cells`` is a list of ``(r_xs, r_ys, s_xs, s_ys)``; returns the
    batch kernel's ten positional inputs (without eps/origins)."""

    def side(xi, yi):
        offsets = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum([len(cell[xi]) for cell in cells], out=offsets[1:])
        xs = np.concatenate([cell[xi] for cell in cells] + [np.empty(0)])
        ys = np.concatenate([cell[yi] for cell in cells] + [np.empty(0)])
        # ids that are not positions: a wrong gather shows
        return 7 * np.arange(offsets[-1], dtype=np.int64) + 3, xs, ys, offsets

    return (*side(0, 1), *side(2, 3))


def _assert_expand_matches_cells(cells, eps, origins, offset, slack):
    args = _task(cells)
    r_ids, r_xs, r_ys, r_off, s_ids, s_xs, s_ys, s_off = args
    probe = grid_hash_probe(*args, eps, origins)
    assert probe is not None
    out_r = np.full(offset + probe.total + slack, -1, dtype=np.int64)
    out_s = np.full(offset + probe.total + slack, -1, dtype=np.int64)
    end, bounds = grid_hash_expand(probe, out_r, out_s, offset)
    assert bounds[0] == offset and bounds[-1] == end <= offset + probe.total
    assert len(probe.candidates) == len(cells)
    assert int(probe.candidates.sum()) == probe.total
    for i in range(len(cells)):
        r = (a[r_off[i]:r_off[i + 1]] for a in (r_ids, r_xs, r_ys))
        s = (a[s_off[i]:s_off[i + 1]] for a in (s_ids, s_xs, s_ys))
        origin = None if origins is None else tuple(origins[i])
        one_r, one_s, one_c = grid_hash_join(*r, *s, eps, origin=origin)
        np.testing.assert_array_equal(out_r[bounds[i]:bounds[i + 1]], one_r)
        np.testing.assert_array_equal(out_s[bounds[i]:bounds[i + 1]], one_s)
        assert int(probe.candidates[i]) == one_c
    # nothing outside [offset, end) was written
    for out in (out_r, out_s):
        assert (out[:offset] == -1).all() and (out[end:] == -1).all()
    # a second expand of the same probe (a retried task) writes the same
    again_r, again_s = np.empty_like(out_r), np.empty_like(out_s)
    end2, bounds2 = grid_hash_expand(probe, again_r, again_s, offset)
    assert end2 == end
    np.testing.assert_array_equal(bounds2, bounds)
    np.testing.assert_array_equal(again_r[offset:end], out_r[offset:end])
    np.testing.assert_array_equal(again_s[offset:end], out_s[offset:end])
    # the count-only form: the same end and per-cell bounds, no columns
    end3, bounds3 = grid_hash_expand(probe, None, None, offset)
    assert end3 == end
    np.testing.assert_array_equal(bounds3, bounds)


@st.composite
def _cells(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            min_size=1, max_size=6,
        )
    )
    if draw(st.booleans()):  # one side empty over the whole task
        keep = draw(st.integers(0, 1))
        sizes = [(nr * keep, ns * (1 - keep)) for nr, ns in sizes]
    # points on a coarse lattice too: ties, duplicates, distance exactly eps
    snap = draw(st.sampled_from([None, 0.05, 0.25]))

    def coords(n):
        pts = rng.uniform(0.0, 1.0, n)
        return pts if snap is None else np.round(pts / snap) * snap

    return [(coords(nr), coords(nr), coords(ns), coords(ns)) for nr, ns in sizes]


@settings(max_examples=60, deadline=None)
@given(
    cells=_cells(),
    eps=st.sampled_from([0.05, 0.1, 0.25, 0.6]),
    with_origins=st.booleans(),
    offset=st.integers(1, 50),
    slack=st.integers(0, 10),
)
def test_probe_expand_matches_the_cell_kernel(cells, eps, with_origins, offset, slack):
    origins = np.zeros((len(cells), 2)) if with_origins else None
    _assert_expand_matches_cells(cells, eps, origins, offset, slack)


def test_expand_spans_many_blocks_of_one_dense_cell():
    """One cell whose candidates fill several expand blocks, flanked by
    an empty cell and a small one: the per-cell bounds survive the block
    cuts."""
    rng = np.random.default_rng(5)
    dense = tuple(rng.uniform(0.0, 0.2, 700) for _ in range(4))
    small = tuple(rng.uniform(0.0, 1.0, 30) for _ in range(4))
    empty = (np.empty(0),) * 4
    cells = [small, empty, dense, small]
    probe = grid_hash_probe(*_task(cells), 0.1, None)
    assert probe.candidates[2] > 3 * _BLOCK_CANDIDATES
    _assert_expand_matches_cells(cells, 0.1, None, offset=17, slack=4)


@pytest.mark.parametrize("flip", ([False, True, False], [True, False, True]))
def test_expand_counts_across_a_role_flip(flip):
    """Cells whose probing side alternates: the block cut at each flip
    keeps the column form per cell, and the count-only form's bounds."""
    rng = np.random.default_rng(9)
    cells = [
        tuple(rng.uniform(0.0, 0.3, n) for n in ((60, 60, 15, 15) if s else (15, 15, 60, 60)))
        for s in flip
    ]
    probe = grid_hash_probe(*_task(cells), 0.05, None)
    assert probe.swapped.tolist() == flip
    _assert_expand_matches_cells(cells, 0.05, None, offset=3, slack=0)


@pytest.mark.parametrize("eps", [0.0, float("inf"), float("nan"), -1.0, 1e-9])
def test_probe_declines_where_the_cell_kernel_falls_back(eps):
    """eps the banding cannot key: the probe says so, nothing is written,
    and the one-cell kernel answers through its fallback."""
    rng = np.random.default_rng(2)
    cells = [tuple(rng.uniform(0.0, 1e3, 20) for _ in range(4))]
    assert grid_hash_probe(*_task(cells), eps, None) is None


def test_empty_task_probes_to_nothing():
    probe = grid_hash_probe(*_task([(np.empty(0),) * 4] * 3), 0.1, None)
    assert probe.total == 0 and probe.candidates.tolist() == [0, 0, 0]
    end, bounds = grid_hash_expand(probe, np.empty(0, np.int64), np.empty(0, np.int64), 0)
    assert end == 0 and bounds.tolist() == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# 2. the order contract
# ----------------------------------------------------------------------
def _inputs():
    return (
        gaussian_clusters(420, seed=51, name="R"),
        gaussian_clusters(380, seed=52, name="S"),
    )


def _staged(kernel, backend, inputs=None, **overrides):
    """One join through the stage list; returns its context."""
    r, s = inputs or _inputs()
    cfg = JoinConfig(
        eps=EPS, method="lpib", num_workers=3, local_kernel=kernel,
        execution_backend=backend, executor_workers=2, **overrides,
    )
    metrics = JoinMetrics(
        method=cfg.method, eps=cfg.eps, num_workers=cfg.num_workers,
        input_r=len(r), input_s=len(s),
    )
    ctx = make_context(cfg, num_workers=cfg.num_workers, metrics=metrics)
    run_staged_join(distance_plan(cfg).stages(PlanInputs(r=r, s=s)), ctx)
    return ctx


def _cell_by_cell(plan, kernel_name, eps):
    """What the order contract promises: the per-cell kernel applied to
    each plan position, in position order."""
    kernel = get_kernel(kernel_name)
    out_r, out_s, cands = [], [], []
    for p in range(plan.num_cells):
        r = slice(plan.r_offsets[p], plan.r_offsets[p + 1])
        s = slice(plan.s_offsets[p], plan.s_offsets[p + 1])
        origin = None if plan.origins is None else tuple(plan.origins[p])
        rid, sid, cand = kernel(
            plan.r_ids[r], plan.r_xs[r], plan.r_ys[r],
            plan.s_ids[s], plan.s_xs[s], plan.s_ys[s], eps, origin=origin,
        )
        out_r.append(rid)
        out_s.append(sid)
        cands.append(cand)
    return out_r, out_s, cands


_EXPECTED = {}


def _expected(kernel):
    """Task-major reference ids, from the plan of a clean serial run."""
    if kernel not in _EXPECTED:
        plan = _staged(kernel, "serial").data["plan"]
        # task-major: workers ascending, then the cells where R probes
        # before those where S does, cells ascending inside each run
        run = 2 * plan.workers + plan.swapped
        assert (np.diff(run) >= 0).all()
        assert (np.diff(plan.cells)[np.diff(run) == 0] > 0).all()
        assert len(np.unique(plan.workers)) > 1, "one task proves no order"
        assert plan.swapped.any() and not plan.swapped.all(), "one role proves no order"
        out_r, out_s, _ = _cell_by_cell(plan, kernel, EPS)
        _EXPECTED[kernel] = (np.concatenate(out_r), np.concatenate(out_s))
    return _EXPECTED[kernel]


SCENARIOS = {
    "clean": {},
    "kill": dict(faults="kill:p=1:times=1", max_retries=3),
    "kernel": dict(faults="kernel:p=1:times=1", max_retries=3),
    "straggler": dict(
        faults="straggler:p=1:times=1:delay=0.05", task_timeout=0.02, max_retries=3
    ),
    "salvage": dict(
        faults="kill:p=1:times=1", max_retries=3, spill="disk", checkpoint_cells=True
    ),
    # no retry budget: every tier gets one shot and hands the task down;
    # the fault outlives every pooled tier, so the serial tier finishes
    "degraded": dict(max_retries=0),
}
POOLED_TIERS = {"threads": 1, "processes": 2}


@pytest.mark.chaos
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
@pytest.mark.parametrize("kernel", ("grid_hash", "plane_sweep"))
def test_result_order_is_task_major_everywhere(tmp_path, kernel, backend, scenario):
    if scenario == "degraded" and backend == "serial":
        pytest.skip("serial has no tier to degrade to")
    overrides = dict(SCENARIOS[scenario])
    if scenario == "degraded":
        overrides["faults"] = f"kernel:p=1:times={POOLED_TIERS[backend]}"
    if "spill" in overrides:
        overrides["spill_dir"] = str(tmp_path)
    ctx = _staged(kernel, backend, **overrides)
    want_r, want_s = _expected(kernel)
    assert len(want_r) > 0
    np.testing.assert_array_equal(ctx.data["r_ids"], want_r)
    np.testing.assert_array_equal(ctx.data["s_ids"], want_s)
    m = ctx.metrics
    if scenario != "clean":
        assert m.fault_events > 0, "the injected fault never fired"
    if scenario == "salvage":
        assert m.cells_salvaged > 0
    if scenario == "degraded":
        assert m.fallback_backend == "serial"


# ----------------------------------------------------------------------
# 3. a failed attempt leaves no stale pairs
# ----------------------------------------------------------------------
def _plan(n=500, seed=9):
    """A 6-cell, 3-simulated-worker plan straight at the executor."""
    rng = np.random.default_rng(seed)
    r = (np.arange(n, dtype=np.int64), rng.uniform(0, 1, n), rng.uniform(0, 1, n))
    s = (np.arange(n, dtype=np.int64), rng.uniform(0, 1, n), rng.uniform(0, 1, n))

    def layout(xs, ys):
        return cell_layout((xs * 3).astype(np.int64) * 2 + (ys > 0.5))

    return build_execution_plan(
        r, s, layout(r[1], r[2]), layout(s[1], s[2]), lambda cells: cells % 3
    )


def test_attempt_dying_between_two_expands_leaves_no_stale_pairs(monkeypatch, no_backoff):
    """The second task's first attempt writes garbage at its offset (and
    past where its real pairs will end), then dies; the retry overwrites
    it and the report is bit-identical to a clean run."""
    plan = _plan()
    clean = execute_plan(plan, "grid_hash", EPS, backend="serial")
    probe_fn, expand_fn = kernels.get_batch_kernel("grid_hash")
    calls = []

    def flaky_expand(probe, out_r, out_s, offset):
        calls.append(offset)
        if len(calls) == 2:  # task 0 expanded; this is task 1's first try
            out_r[offset:] = -7
            out_s[offset:] = -7
            raise RuntimeError("died mid-expand")
        return expand_fn(probe, out_r, out_s, offset)

    monkeypatch.setitem(kernels._BATCH_REGISTRY, "grid_hash", (probe_fn, flaky_expand))
    report = execute_plan(
        plan, "grid_hash", EPS, backend="serial",
        max_retries=2,
    )
    assert calls[1] == calls[2] > 0, "the retry must start where the attempt did"
    assert len(calls) == 4 and report.attempts == 4
    assert [f.error_type for f in report.failures] == ["RuntimeError"]
    np.testing.assert_array_equal(report.r_col, clean.r_col)
    np.testing.assert_array_equal(report.s_col, clean.s_col)
    np.testing.assert_array_equal(report.bounds, clean.bounds)
    assert (report.r_col >= 0).all() and (report.s_col >= 0).all()


@pytest.mark.parametrize("backend", ("serial", "threads"))
def test_injected_fault_retry_is_bit_identical(backend, no_backoff):
    plan = _plan()
    clean = execute_plan(plan, "grid_hash", EPS, backend="serial")
    report = execute_plan(
        plan, "grid_hash", EPS, backend=backend, max_workers=2,
        faults=FaultPlan.parse("kernel:worker=1:times=1"),
        max_retries=2,
    )
    assert report.task_attempts == {0: 1, 1: 2, 2: 1}
    np.testing.assert_array_equal(report.r_col, clean.r_col)
    np.testing.assert_array_equal(report.s_col, clean.s_col)
    np.testing.assert_array_equal(report.bounds, clean.bounds)
    # a task's wall is its probe plus its expand, on every tier
    assert set(report.worker_wall) == {0, 1, 2}
    assert all(wall > 0.0 for wall in report.worker_wall.values())


def test_a_pool_that_dies_while_tasks_are_submitted_is_rebuilt(monkeypatch, no_backoff):
    """A killed worker can break the pool before the scheduler has
    submitted every task: the refused submission is a lost attempt."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    plan = _plan()
    clean = execute_plan(plan, "grid_hash", EPS, backend="serial")
    submit, calls = ProcessPoolExecutor.submit, []

    def dies_once(self, fn, /, *args, **kwargs):
        calls.append(fn)
        if len(calls) == 2:
            raise BrokenProcessPool("a child process terminated abruptly")
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", dies_once)
    report = execute_plan(
        plan, "grid_hash", EPS, backend="processes", max_workers=2,
        max_retries=2,
    )
    assert report.pool_rebuilds == 1 and report.backend_used == "processes"
    np.testing.assert_array_equal(report.r_col, clean.r_col)
    np.testing.assert_array_equal(report.s_col, clean.s_col)


# ----------------------------------------------------------------------
# 4. per-position views, and no copy on the serial tier
# ----------------------------------------------------------------------
@pytest.fixture
def pool():
    """The slab pool, empty before and after: what it retains is process
    state, and these tests read it."""
    slabs._slabs.clear()
    yield slabs
    slabs._slabs.clear()


def _dense(seed, n=2000):
    """One tight cluster on both sides: ~0.4 M candidates at ``EPS``, so the
    result columns are pool slabs (3-4 MB), not malloc's."""
    rng = np.random.default_rng(seed)
    return tuple(
        PointSet(
            rng.normal(0.5, 0.04, n).clip(0, 1), rng.normal(0.5, 0.04, n).clip(0, 1),
            name=name,
        )
        for name in "RS"
    )


def _dense_join(seed, backend="serial", **overrides):
    cfg = JoinConfig(
        eps=EPS, num_workers=3, local_kernel="grid_hash",
        execution_backend=backend, executor_workers=2, **overrides,
    )
    return distance_join(*_dense(seed), cfg)


def _slab_of(column):
    """The pool slab ``column`` is a view of, or ``None``."""
    return next((slab for slab in slabs._slabs if column.base is slab), None)


@pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
@pytest.mark.parametrize("kernel", ("grid_hash", "plane_sweep"))
def test_pair_views_equal_the_per_cell_arrays(kernel, backend):
    plan = _plan()
    report = execute_plan(plan, kernel, EPS, backend=backend, max_workers=2)
    want_r, want_s, want_c = _cell_by_cell(plan, kernel, EPS)
    assert len(report.pair_r) == len(report.pair_s) == plan.num_cells
    for p in range(plan.num_cells):
        np.testing.assert_array_equal(report.pair_r[p], want_r[p])
        np.testing.assert_array_equal(report.pair_s[p], want_s[p])
        assert np.shares_memory(report.pair_r[p], report.r_col) or not len(want_r[p])
    assert report.candidates.tolist() == want_c
    assert report.bounds[-1] == len(report.r_col) == len(report.s_col)
    with pytest.raises(IndexError):
        report.pair_r[plan.num_cells]


def test_serial_result_is_the_memory_the_kernel_wrote(pool):
    """``collect`` is a view: the driver's ids are the report's columns,
    which are views of a pool slab from its start, at exact length."""
    ctx = _staged("grid_hash", "serial", inputs=_dense(61))
    report = ctx.data["report"]
    assert ctx.data["r_ids"] is report.r_col and ctx.data["s_ids"] is report.s_col
    for column in (report.r_col, report.s_col):
        slab = _slab_of(column)
        assert slab is not None and slab.flags.owndata
        assert column.ctypes.data == slab.ctypes.data
    assert _slab_of(report.r_col) is not _slab_of(report.s_col)
    assert len(report.r_col) == ctx.metrics.results == report.bounds[-1]
    assert "src_workers" not in ctx.data


def test_dedup_clock_matches_the_per_pair_sum():
    """The Table 6 variant: the distinct shuffle's volumes are exact and
    its clock is the per-pair read cost summed per destination -- taken
    from counts, so only the rounding of the sum may differ."""
    from repro.engine.cluster import SimCluster
    from repro.engine.metrics import CostModel
    from repro.engine.shuffle import ShuffleStats
    from repro.joins.pipeline import (
        DISTINCT_RECORD_COST,
        PAIR_BYTES,
        parallel_distinct,
    )
    from repro.joins.postprocess import pack_pair_keys

    rng = np.random.default_rng(11)
    W, parts, n = 4, 16, 5000
    r_ids = rng.integers(0, 60, n).astype(np.int64)
    s_ids = rng.integers(0, 60, n).astype(np.int64)
    bounds = np.array([0, 1200, 1200, 3100, n])  # worker 1 produced nothing
    workers = np.arange(W)
    cm = CostModel()
    cluster, shuffle = SimCluster(W), ShuffleStats()
    got_r, got_s, clock = parallel_distinct(
        r_ids, s_ids, (workers, bounds), cluster, shuffle, parts, cm
    )
    uniq = np.unique(pack_pair_keys(r_ids, s_ids))
    np.testing.assert_array_equal(pack_pair_keys(got_r, got_s), uniq)
    src = np.repeat(workers, np.diff(bounds))
    dst = (pack_pair_keys(r_ids, s_ids) % parts) % W
    cost = np.where(
        src != dst,
        PAIR_BYTES * cm.remote_byte_cost + DISTINCT_RECORD_COST,
        PAIR_BYTES * cm.local_byte_cost + DISTINCT_RECORD_COST,
    )
    want = max(float(cost[dst == w].sum()) for w in range(W))
    assert clock == pytest.approx(want, rel=1e-12)
    assert shuffle.records == n and shuffle.bytes == n * PAIR_BYTES
    assert shuffle.remote_records == int((src != dst).sum())


# ----------------------------------------------------------------------
# 5. leased columns: never overwritten while referenced, reused once not
# ----------------------------------------------------------------------
_DENSE_EXPECTED = {}


def _dense_expected(seed):
    """Seed's pairs, copied out of the pool once."""
    if seed not in _DENSE_EXPECTED:
        res = _dense_join(seed)
        _DENSE_EXPECTED[seed] = (res.r_ids.copy(), res.s_ids.copy())
    return _DENSE_EXPECTED[seed]


def _assert_is_join(result, seed):
    want_r, want_s = _dense_expected(seed)
    np.testing.assert_array_equal(result.r_ids, want_r)
    np.testing.assert_array_equal(result.s_ids, want_s)


def _hold(kind, backend):
    """Run join A; keep one thing of it.  Returns ``(held, watched)``:
    the only reference that survives, and the arrays whose bytes it pins."""
    if kind == "segment":
        report = _staged("grid_hash", backend, inputs=_dense(61)).data["report"]
        assert _slab_of(report.r_col) is not None
        segment = report.pair_r[int(np.argmax(np.diff(report.bounds)))]
        return segment, [segment]
    result = _dense_join(61, backend)
    assert _slab_of(result.r_ids) is not None and _slab_of(result.s_ids) is not None
    if kind == "result":
        return result, [result.r_ids, result.s_ids]
    if kind == "slice_of_slice":
        part = result.r_ids[10:][5::3]
        return part, [part]
    view = memoryview(result.s_ids)
    return view, [np.frombuffer(view, dtype=np.int64)]


@pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
@pytest.mark.parametrize("kind", ("result", "slice_of_slice", "segment", "memoryview"))
def test_a_held_result_survives_the_next_join(pool, kind, backend):
    _dense_expected(71)  # the reference runs before anything is held
    held, watched = _hold(kind, backend)
    before = [w.copy() for w in watched]
    del watched
    gc.collect()
    other = _dense_join(71, backend)
    _assert_is_join(other, 71)
    now = [held.r_ids, held.s_ids] if kind == "result" else [np.asarray(held)]
    for kept, was in zip(now, before):
        np.testing.assert_array_equal(kept, was)
        assert not np.shares_memory(kept, other.r_ids)
        assert not np.shares_memory(kept, other.s_ids)


def _scenario_overrides(tmp_path, backend, scenario):
    overrides = dict(SCENARIOS[scenario])
    if scenario == "degraded":
        overrides["faults"] = f"kernel:p=1:times={POOLED_TIERS[backend]}"
    if "spill" in overrides:
        overrides["spill_dir"] = str(tmp_path)
    return overrides


@pytest.mark.chaos
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
def test_a_held_result_survives_a_faulted_join(pool, tmp_path, backend, scenario):
    if scenario == "degraded" and backend == "serial":
        pytest.skip("serial has no tier to degrade to")
    _dense_expected(71)
    held = _dense_join(61)
    before = (held.r_ids.copy(), held.s_ids.copy())
    other = _dense_join(71, backend, **_scenario_overrides(tmp_path, backend, scenario))
    _assert_is_join(other, 71)
    if scenario != "clean":
        assert other.metrics.fault_events > 0, "the injected fault never fired"
    for kept, was in zip((held.r_ids, held.s_ids), before):
        np.testing.assert_array_equal(kept, was)
        assert not np.shares_memory(kept, other.r_ids)
        assert not np.shares_memory(kept, other.s_ids)


def test_a_dropped_result_hands_its_slabs_to_the_next_job(pool):
    first = _dense_join(61)
    addresses = {first.r_ids.ctypes.data, first.s_ids.ctypes.data}
    assert len(pool._slabs) == 2
    del first
    second = _dense_join(71)  # other inputs, a near-equal candidate total
    assert {second.r_ids.ctypes.data, second.s_ids.ctypes.data} == addresses
    assert len(pool._slabs) == 2
    _assert_is_join(second, 71)


def test_the_pool_follows_the_working_size(pool):
    """A miss drops the idle slabs that were too small for it; a request
    that fits takes the smallest idle slab that does."""
    mib = 1 << 20
    small = [pool.lease(mib // 8), pool.lease(mib // 8)]  # 1 MiB each
    assert [s.nbytes for s in pool._slabs] == [mib, mib]
    del small
    big = pool.lease(3 * mib // 8 + 1)  # rounds up to 4 MiB
    assert [s.nbytes for s in pool._slabs] == [4 * mib]
    again = pool.lease(mib // 8)  # the 4 MiB slab is leased: a second miss
    assert [s.nbytes for s in pool._slabs] == [4 * mib, mib]
    del big, again
    fit = pool.lease(mib // 8)
    assert fit.base is pool._slabs[1], "best fit, not first fit"
    below = pool.lease(mib // 8 - 1)
    assert below.base is None and below.flags.owndata, "under 1 MiB is malloc's"


def test_a_request_above_the_retention_constant_is_a_plain_array(pool):
    n = pool.RETAIN_BYTES // 8 + 1  # never touched: no page of it is resident
    column = pool.lease(n)
    assert column.base is None and column.flags.owndata and len(column) == n
    assert pool._slabs == []
    # and one that would take the pool past the constant is not retained
    held = [pool.lease(pool.RETAIN_BYTES // 16) for _ in range(3)]
    assert len(pool._slabs) == 2
    assert held[2].base.flags.owndata and _slab_of(held[2]) is None


def test_live_leases_never_alias_under_contention(pool):
    """More threads than cores, a short switch interval: every thread
    leases, stamps its column, yields, and must read its stamp back."""
    mib, deadline = 1 << 20, time.monotonic() + 1.5
    errors = []

    def worker(token):
        rng = np.random.default_rng(token)
        while time.monotonic() < deadline and not errors:
            column = pool.lease(int(rng.integers(1, 4)) * mib // 8)
            column[:] = token
            time.sleep(0)
            if not (column == token).all():
                errors.append(token)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert sum(s.nbytes for s in pool._slabs) <= pool.RETAIN_BYTES


def test_concurrent_joins_keep_their_own_results(pool):
    for seed in (61, 71):
        _dense_expected(seed)
    failures = []

    def worker(seed):
        try:
            for _ in range(4):
                _assert_is_join(_dense_join(seed), seed)
        except BaseException as exc:  # surfaced below, on the main thread
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in (61, 71, 61, 71)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def _pool_state_in_child():
    column = slabs.lease(1 << 17)  # the lock is usable, the lease is the child's own
    return len(slabs._slabs), column.base is slabs._slabs[0]


def test_a_forked_worker_starts_with_an_empty_pool(pool):
    """A ``processes`` worker forked while the parent holds leases -- and
    while another thread holds the pool's lock -- sees neither."""
    held = pool.lease(1 << 17)
    held[:] = 7
    assert len(pool._slabs) == 1
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as ex:
        with pool._lock:
            future = ex.submit(_pool_state_in_child)  # forks here
        assert future.result(timeout=30) == (1, True)
    assert (held == 7).all() and len(pool._slabs) == 1


# ----------------------------------------------------------------------
# 6. count-only: the same counts, no columns
# ----------------------------------------------------------------------
_CLEAN_REPORTS = {}


def _clean_report(kernel):
    if kernel not in _CLEAN_REPORTS:
        _CLEAN_REPORTS[kernel] = _staged(kernel, "serial").data["report"]
    return _CLEAN_REPORTS[kernel]


@pytest.mark.chaos
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
@pytest.mark.parametrize("kernel", ("grid_hash", "plane_sweep"))
def test_count_only_reports_the_same_counts_everywhere(
    tmp_path, monkeypatch, kernel, backend, scenario
):
    if scenario == "degraded" and backend == "serial":
        pytest.skip("serial has no tier to degrade to")
    _clean_report(kernel)  # the collecting reference leases; the count must not

    def no_lease(*_):  # forked workers inherit it
        raise AssertionError("a count-only join leased a slab")

    monkeypatch.setattr(executor, "lease", no_lease)
    ctx = _staged(
        kernel, backend, collect_pairs=False,
        **_scenario_overrides(tmp_path, backend, scenario),
    )
    want, report = _clean_report(kernel), ctx.data["report"]
    assert ctx.metrics.results == len(want.r_col) > 0
    np.testing.assert_array_equal(report.bounds, want.bounds)
    np.testing.assert_array_equal(report.candidates, want.candidates)
    for column in (report.r_col, report.s_col, ctx.data["r_ids"], ctx.data["s_ids"]):
        assert len(column) == 0 and column.dtype == np.int64
    for segments in ("pair_r", "pair_s"):
        with pytest.raises(ValueError, match="collect_pairs=False"):
            getattr(report, segments)[0]
    if scenario != "clean":
        assert ctx.metrics.fault_events > 0, "the injected fault never fired"


@pytest.mark.parametrize("backend", ("serial", "threads"))
def test_count_only_leases_no_slab(pool, backend):
    """A dense count (~0.4 M candidates: a collecting task's columns
    would be pool slabs) writes no pair anywhere: the pool stays empty."""
    collecting = _dense_join(61, backend)
    pool._slabs.clear()
    counting = _dense_join(61, backend, collect_pairs=False)
    assert counting.metrics.results == len(collecting) > 0
    assert counting.metrics.candidate_pairs == collecting.metrics.candidate_pairs
    assert len(counting.r_ids) == len(counting.s_ids) == 0
    assert pool._slabs == []
