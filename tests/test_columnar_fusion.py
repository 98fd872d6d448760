"""The columnar zero-copy task path, pinned against the real references.

Four guarantees around the assign -> shuffle -> local-join path:

1. *Kernel x backend matrix* -- the point driver returns the pair-set,
   integer metrics and full-precision modelled clocks of
   ``tests/golden/driver_goldens.json`` (captured from the PR 3 tree)
   under every kernel and execution backend; what is the kernel's own
   (candidate counts and the join clock priced from them) must equal
   the serial run of the same kernel.
2. *Fault semantics* -- chaos runs (kill + fetch faults, disk spill,
   cell checkpointing) still salvage and still match a fault-free
   serial run.
3. *Payload lint* -- the plan crosses to the process pool through one
   shared-memory segment, and a task's arguments carry its range of plan
   positions, never per-record object lists or big arrays.
4. *Zero-copy plumbing* -- the memory-tier block store hands back the
   arrays it was given (no serialization round-trip), and the shuffle
   spills slice views sharing one backing array per side.

Plus unit-level equivalence for the two batched primitives: the batched
``grid_hash`` kernel and the k-way-merge distinct.
"""

import pickle

import numpy as np
import pytest

from repro.data.generators import gaussian_clusters
from repro.joins.distance_join import JoinConfig, distance_join
from tests.conftest import cell_layout
from tests.test_driver_equivalence import GOLDENS, core_metrics, pairs_digest

#: the golden row whose inputs and config the ``points`` fixture and
#: ``BASE`` reproduce (default ``cell_assignment`` is ``lpt``)
GOLDEN = next(
    row for row in GOLDENS["distance"]
    if (row["method"], row["cell_assignment"]) == ("lpib", "lpt")
)
BASE = dict(eps=0.02, method="lpib", num_workers=4, seed=0)


# ----------------------------------------------------------------------
# 1. kernel x backend against the driver goldens
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def points():
    return (
        gaussian_clusters(600, seed=1, name="R"),
        gaussian_clusters(550, seed=2, name="S"),
    )


@pytest.fixture(scope="module")
def serial_runs(points):
    """One fault-free serial run per kernel: the kernel's own numbers."""
    r, s = points
    return {
        kernel: distance_join(r, s, JoinConfig(**BASE, local_kernel=kernel))
        for kernel in ("plane_sweep", "grid_hash")
    }


@pytest.mark.parametrize("kernel", ("plane_sweep", "grid_hash"))
@pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
def test_distance_kernel_backend_matches_golden(
    points, serial_runs, kernel, backend
):
    r, s = points
    res = distance_join(
        r, s,
        JoinConfig(
            **BASE, local_kernel=kernel, execution_backend=backend,
            executor_workers=2,
        ),
    )
    m = res.metrics
    assert pairs_digest(res.pairs_set()) == GOLDEN["pairs_sha256"]
    got, want = core_metrics(m), dict(GOLDEN["metrics"])
    if kernel != "plane_sweep":
        # the goldens ran plane_sweep; another kernel inspects other candidates
        del got["candidate_pairs"], want["candidate_pairs"]
    assert got == want
    # modelled clocks bit-identical: repr pins every bit
    assert repr(m.construction_time_model) == GOLDEN["construction_time_model"]
    if kernel == "plane_sweep":
        assert repr(m.join_time_model) == GOLDEN["join_time_model"]
    ref = serial_runs[kernel].metrics
    assert m.candidate_pairs == ref.candidate_pairs
    assert repr(m.join_time_model) == repr(ref.join_time_model)


def test_reports_launch_overhead_model(serial_runs):
    """The launch-overhead term lands in ``extra``, not the clocks."""
    m = serial_runs["plane_sweep"].metrics
    assert m.extra["launch_overhead_model"] > 0
    assert m.extra["join_time_model_launch_adjusted"] == (
        m.join_time_model + m.extra["launch_overhead_model"]
    )


# ----------------------------------------------------------------------
# 2. chaos against the fault-free serial run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ("threads", "processes"))
def test_chaos_matches_fault_free_serial(tmp_path, points, serial_runs, backend):
    r, s = points
    reference = serial_runs["grid_hash"]
    assert len(reference) > 0
    chaos = distance_join(
        r, s,
        JoinConfig(
            **BASE, local_kernel="grid_hash", execution_backend=backend,
            executor_workers=2, faults="fetch:p=1:times=1;kill:p=1:times=1",
            max_retries=3, spill="disk", spill_dir=str(tmp_path),
            checkpoint_cells=True,
        ),
    )
    assert chaos.pairs_set() == reference.pairs_set()
    assert pairs_digest(chaos.pairs_set()) == GOLDEN["pairs_sha256"]
    assert chaos.metrics.fault_events > 0, "the injected faults never fired"
    assert chaos.metrics.blocks_refetched > 0
    assert chaos.metrics.cells_salvaged > 0, (
        "cell checkpointing must keep salvaging (the batched kernel pass "
        "is required to stand down when checkpoints are on)"
    )
    assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"


# ----------------------------------------------------------------------
# 3. payload lint: task args ship descriptors, not record lists
# ----------------------------------------------------------------------
def _plan_and_tasks(n_cells=50, per_cell=200):
    """A realistic plan: ``n_cells`` cells of ``per_cell`` points each."""
    from repro.engine.executor import build_execution_plan

    rng = np.random.default_rng(13)
    total = n_cells * per_cell
    ids = np.arange(total, dtype=np.int64)
    xs, ys = rng.uniform(0, 1, total), rng.uniform(0, 1, total)
    layout = cell_layout(np.repeat(np.arange(n_cells), per_cell))
    plan = build_execution_plan(
        (ids, xs, ys), (ids, xs, ys), layout, layout, lambda cells: cells % 4
    )
    return plan, plan.worker_groups()


def _task_args(plan, worker_id, positions, attempt=0):
    """One process-pool task's argument tuple, as ``_pool_tier`` builds it."""
    from repro.engine.executor import _make_process_task_args

    sizes = (plan.num_cells, len(plan.r_ids), len(plan.s_ids), False)
    return _make_process_task_args(
        worker_id, positions, "grid_hash", 0.02, "repro_0_0_000000", sizes,
        attempt, None, None, False, None, None,
    )


def test_process_task_args_are_descriptor_sized():
    """Pickled task args stay O(1) no matter how many records shuffle.

    Builds a 10k-point plan and lints every worker's argument tuple: a
    few hundred bytes, no numpy arrays, no lists of per-record objects --
    a whole task travels as its ``(lo, hi)`` range of plan positions.
    """
    plan, tasks = _plan_and_tasks()
    for worker_id, positions in tasks.items():
        args = _task_args(plan, worker_id, positions)
        payload = pickle.dumps(args)
        assert len(payload) < 1024, (
            f"worker {worker_id} task args pickled to {len(payload)}B; "
            "per-record data is leaking into the task payload"
        )
        assert args[1] == (int(positions[0]), int(positions[-1]) + 1), (
            "expected the task's range"
        )
        for item in [*args, *args[1], *args[5]]:
            assert not isinstance(item, np.ndarray)
            assert not (isinstance(item, (list, tuple)) and len(item) > 8)


def test_salvage_path_still_ships_explicit_positions():
    """A checkpoint-salvaged remainder with holes travels as its array;
    one that lost only its ends (``tasks[w][1:]``) is still a range."""
    plan, tasks = _plan_and_tasks()
    worker_id = next(iter(tasks))
    task = tasks[worker_id]
    holed = np.delete(task, 1)  # a salvage-style remainder
    args = _task_args(plan, worker_id, holed, attempt=1)
    assert isinstance(args[1], np.ndarray)
    np.testing.assert_array_equal(args[1], holed)
    tail = task[1:]
    args = _task_args(plan, worker_id, tail, attempt=1)
    assert args[1] == (int(tail[0]), int(tail[-1]) + 1)


def test_a_processes_join_publishes_one_segment(points, monkeypatch):
    """The plan crosses to the workers through exactly one shared-memory
    segment, and the join unlinks it."""
    import os

    from repro.engine import executor

    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    created = []

    def counting_new_shm(size):
        shm = new_shm(size)
        created.append(shm.name)
        return shm

    new_shm = executor._new_shm
    monkeypatch.setattr(executor, "_new_shm", counting_new_shm)
    r, s = points
    res = distance_join(
        r, s,
        JoinConfig(
            **BASE, local_kernel="grid_hash", execution_backend="processes",
            executor_workers=2,
        ),
    )
    assert pairs_digest(res.pairs_set()) == GOLDEN["pairs_sha256"]
    assert len(created) == 1
    mine = f"repro_{os.getpid()}_"
    assert not [n for n in os.listdir("/dev/shm") if n.startswith(mine)]


# ----------------------------------------------------------------------
# 4. zero-copy plumbing
# ----------------------------------------------------------------------
def test_memory_tier_fetch_is_zero_copy():
    from repro.engine.blockstore.store import BlockId, BlockStore

    store = BlockStore(tier="memory")
    arrays = {
        "cells": np.arange(10, dtype=np.int64),
        "points": np.arange(10, dtype=np.int64),
    }
    bid = BlockId("R", 0, 1)
    store.put(bid, arrays, records=10, logical_bytes=240)
    _meta, fetched = store.fetch(bid)
    assert fetched["cells"] is arrays["cells"], (
        "memory tier must serve the stored array itself, not a copy"
    )
    assert fetched["points"] is arrays["points"]
    store.close()


def test_spilled_shuffle_blocks_share_one_backing_array():
    """``spill_side_blocks`` puts slice views, not per-block copies."""
    from repro.engine.blockstore.store import BlockId, BlockStore
    from repro.joins.pipeline import spill_side_blocks

    rng = np.random.default_rng(7)
    n = 500
    cells = rng.integers(0, 20, n)
    idxs = np.arange(n, dtype=np.int64)
    src = rng.integers(0, 3, n)
    dst = rng.integers(0, 3, n)
    store = BlockStore(tier="memory")
    spill_side_blocks(store, "R", cells, idxs, src, dst, 24, 3)
    assert store.blocks_spilled > 1
    bases = set()
    total_records = 0
    for bid in list(store._meta):
        _meta, arrays = store.fetch(bid)
        assert arrays["cells"].base is not None, "expected a slice view"
        bases.add(id(arrays["cells"].base))
        total_records += len(arrays["cells"])
        # each block holds exactly one (src, dst) edge's records
        sel = (src == bid.src) & (dst == bid.dst)
        np.testing.assert_array_equal(
            np.sort(arrays["points"]), np.sort(idxs[sel])
        )
    assert len(bases) == 1, "blocks must share one backing array per side"
    assert total_records == n
    store.close()


# ----------------------------------------------------------------------
# 5. batched primitives
# ----------------------------------------------------------------------
def test_batched_grid_hash_matches_scalar_kernel():
    from repro.joins.local import grid_hash_join
    from tests.conftest import grid_hash_batch

    rng = np.random.default_rng(3)
    segments = []
    for i in range(12):
        n_r = int(rng.integers(0, 60))
        n_s = int(rng.integers(0, 60))
        segments.append((
            (np.arange(n_r, dtype=np.int64), rng.uniform(0, 1, n_r),
             rng.uniform(0, 1, n_r)),
            (np.arange(n_s, dtype=np.int64), rng.uniform(0, 1, n_s),
             rng.uniform(0, 1, n_s)),
        ))
    eps = 0.05

    def concat(side_idx, col):
        parts = [seg[side_idx][col] for seg in segments]
        offsets = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in parts], out=offsets[1:])
        return np.concatenate(parts), offsets

    r_ids, r_off = concat(0, 0)
    r_xs, _ = concat(0, 1)
    r_ys, _ = concat(0, 2)
    s_ids, s_off = concat(1, 0)
    s_xs, _ = concat(1, 1)
    s_ys, _ = concat(1, 2)

    out = grid_hash_batch(
        r_ids, r_xs, r_ys, r_off, s_ids, s_xs, s_ys, s_off, eps, None
    )
    assert out is not None
    pair_r, pair_s, candidates = out
    for i, (rseg, sseg) in enumerate(segments):
        ref_r, ref_s, ref_c = grid_hash_join(*rseg, *sseg, eps)
        np.testing.assert_array_equal(pair_r[i], ref_r)
        np.testing.assert_array_equal(pair_s[i], ref_s)
        assert int(candidates[i]) == int(ref_c)


def test_batched_distinct_matches_full_unique():
    """Per-block unique plus one k-way merge, as ``parallel_distinct``
    runs it, equals the whole-input ``distinct_pairs``."""
    from repro.joins.postprocess import (
        distinct_pairs,
        merge_sorted_unique,
        pack_pair_keys,
        unpack_pair_keys,
    )

    rng = np.random.default_rng(5)
    r_ids = rng.integers(0, 50, 4000).astype(np.int64)
    s_ids = rng.integers(0, 50, 4000).astype(np.int64)
    ref_r, ref_s = distinct_pairs(r_ids, s_ids)
    key = pack_pair_keys(r_ids, s_ids)
    for blocks in (1, 3, 7, 16):
        bounds = np.linspace(0, len(r_ids), blocks + 1).astype(np.int64)
        got_r, got_s = unpack_pair_keys(merge_sorted_unique(
            [np.unique(key[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        ))
        np.testing.assert_array_equal(got_r, ref_r)
        np.testing.assert_array_equal(got_s, ref_s)

    # the merge alone: equals np.unique over the concatenation
    parts = [np.unique(key[i::4]) for i in range(4)]
    np.testing.assert_array_equal(
        merge_sorted_unique(parts), np.unique(key)
    )
    assert len(merge_sorted_unique([])) == 0
    one = np.unique(key)
    assert merge_sorted_unique([one]) is one
