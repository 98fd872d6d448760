"""Fault-tolerance tests: the fault-plan DSL, the executor's recovery
machinery, and a chaos matrix proving the answer never changes.

The core guarantee under test: with a deterministic
:class:`~repro.engine.faults.FaultPlan` and retries enabled, a faulted
run is **bit-identical** to a fault-free serial run -- on every backend,
with every kernel, for every fault kind.
"""

import os

import numpy as np
import pytest

from repro.data.generators import gaussian_clusters
from repro.engine.executor import RetryPolicy, build_execution_plan, execute_plan
from repro.engine.faults import (
    FaultClause,
    FaultPlan,
    InjectedKernelError,
    RetryBudgetExhausted,
    ShuffleFetchError,
)
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.local import LOCAL_KERNELS
from repro.verify.invariants import validate_join_result
from tests.conftest import cell_layout

EPS = 0.02
KERNELS = sorted(LOCAL_KERNELS)
BACKENDS = ("serial", "threads", "processes")

#: One canonical spec per fault kind, all firing with certainty on the
#: first attempt so the chaos matrix is not probabilistic.
FAULT_SPECS = {
    "kill": "kill:p=1:times=1",
    "straggler": "straggler:p=1:times=1:delay=0.02",
    "fetch": "fetch:p=1:times=1",
    "kernel": "kernel:p=1:times=1",
}


# ----------------------------------------------------------------------
# FaultPlan DSL
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_roundtrip_through_spec(self):
        spec = "kill:p=0.5:times=2,straggler:worker=3:delay=0.2,fetch,kernel:times=0"
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.spec()) == plan
        assert plan.spec() == spec

    def test_aliases_normalize(self):
        plan = FaultPlan.parse("worker_kill,delay,shuffle_fetch,kernel_error")
        assert tuple(c.kind for c in plan.clauses) == (
            "kill", "straggler", "fetch", "kernel",
        )

    def test_decisions_are_deterministic(self):
        a = FaultPlan.parse("kill:p=0.5:times=0", seed=7)
        b = FaultPlan.parse("kill:p=0.5:times=0", seed=7)
        draws = [(k, t) for k in range(20) for t in range(5)]
        assert [a.decide("kill", k, t) for k, t in draws] == [
            b.decide("kill", k, t) for k, t in draws
        ]

    def test_seed_changes_decisions(self):
        base = FaultPlan.parse("kill:p=0.5:times=0")
        reseeded = base.with_seed(99)
        draws = [(k, t) for k in range(50) for t in range(4)]
        fired = [base.decide("kill", k, t) is not None for k, t in draws]
        refired = [reseeded.decide("kill", k, t) is not None for k, t in draws]
        assert fired != refired  # 200 coin flips agreeing would be a miracle
        assert 0 < sum(fired) < len(draws)  # p=0.5 behaves like a coin

    def test_probability_extremes(self):
        never = FaultPlan.parse("kernel:p=0:times=0")
        always = FaultPlan.parse("kernel:p=1:times=0")
        for key in range(10):
            assert never.decide("kernel", key, 0) is None
            assert always.decide("kernel", key, 0) is not None

    def test_times_limits_eligible_attempts(self):
        plan = FaultPlan.parse("kill:p=1:times=2")
        assert plan.decide("kill", 0, 0) is not None
        assert plan.decide("kill", 0, 1) is not None
        assert plan.decide("kill", 0, 2) is None  # survived attempts stay safe

    def test_worker_filter(self):
        plan = FaultPlan.parse("straggler:worker=2:delay=0.1")
        assert plan.decide("straggler", 2, 0) is not None
        assert plan.decide("straggler", 1, 0) is None
        assert plan.straggler_delay(2, 0) == pytest.approx(0.1)
        assert plan.straggler_delay(1, 0) == 0.0

    def test_kind_mismatch_never_fires(self):
        plan = FaultPlan.parse("kill:p=1:times=0")
        assert plan.decide("kernel", 0, 0) is None

    @pytest.mark.parametrize("bad", [
        "explode",                 # unknown kind
        "kill:frequency=2",        # unknown parameter
        "kill:p=lots",             # unparsable value
        "kill:p=1.5",              # probability out of range
        "straggler:delay=-1",      # negative delay
        "kill:times=-2",           # negative times
        "",                        # empty spec
        ",,,",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.parse("kill")
        with pytest.raises(ValueError):
            FaultClause("kill", p=2.0)


# ----------------------------------------------------------------------
# chaos matrix: every (kernel x backend x fault kind) stays bit-identical
# ----------------------------------------------------------------------
def chaos_inputs():
    return (
        gaussian_clusters(420, seed=51, name="R"),
        gaussian_clusters(380, seed=52, name="S"),
    )


def chaos_join(kernel, backend, **overrides):
    r, s = chaos_inputs()
    cfg = JoinConfig(
        eps=EPS,
        method="lpib",
        num_workers=3,
        local_kernel=kernel,
        execution_backend=backend,
        executor_workers=2,
        **overrides,
    )
    return r, s, distance_join(r, s, cfg)


_REFERENCE = {}


def reference_result(kernel):
    """Fault-free serial run, computed once per kernel."""
    if kernel not in _REFERENCE:
        _REFERENCE[kernel] = chaos_join(kernel, "serial")[2]
    return _REFERENCE[kernel]


@pytest.mark.chaos
@pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_chaos_matrix_bit_identical(kernel, backend, fault):
    reference = reference_result(kernel)
    assert len(reference) > 0  # a vacuous matrix proves nothing
    r, s, res = chaos_join(
        kernel, backend, faults=FAULT_SPECS[fault], max_retries=3
    )
    # bit-identical to the fault-free serial run: same arrays, same order
    assert np.array_equal(res.r_ids, reference.r_ids), (kernel, backend, fault)
    assert np.array_equal(res.s_ids, reference.s_ids), (kernel, backend, fault)
    # and independently correct + duplicate-free against the kd-tree oracle
    check = validate_join_result(res, r, s, EPS)
    assert check.ok, check.issues
    m = res.metrics
    assert m.fault_events > 0, "the injected fault never fired"
    if fault in ("kill", "kernel"):
        # failures must have cost extra attempts (retries or speculation)
        assert m.task_retries > 0 or m.speculative_wins > 0
    if fault == "fetch":
        assert m.extra["fetch_retries"] > 0
        assert m.extra["refetch_bytes"] > 0
        assert m.recovery_time_model > 0
    if fault == "straggler":
        assert m.recovery_time_model > 0  # injected delay hits the model


@pytest.mark.chaos
def test_chaos_recovery_metrics_accounted(small_clusters):
    r, s = small_clusters
    cfg = JoinConfig(
        eps=EPS, method="uni_r", num_workers=3, executor_workers=2,
        execution_backend="threads", faults="kernel:p=1:times=1", max_retries=2,
    )
    m = distance_join(r, s, cfg).metrics
    assert m.task_attempts >= m.task_retries + 3  # 3 sim-worker tasks
    assert m.recovery_seconds > 0  # failed attempts + backoff were measured


# ----------------------------------------------------------------------
# executor-level recovery machinery
# ----------------------------------------------------------------------
def make_plan(n=400, seed=9):
    """A 4-cell, 2-simulated-worker plan straight at the executor."""
    rng = np.random.default_rng(seed)
    r = (np.arange(n, dtype=np.int64), rng.uniform(0, 1, n), rng.uniform(0, 1, n))
    s = (np.arange(n, dtype=np.int64), rng.uniform(0, 1, n), rng.uniform(0, 1, n))

    def layout(xs, ys):
        return cell_layout((xs > 0.5).astype(np.int64) * 2 + (ys > 0.5))

    return build_execution_plan(
        r, s, layout(r[1], r[2]), layout(s[1], s[2]), lambda cells: cells % 2
    )


def assert_same_results(a, b):
    assert np.array_equal(a.candidates, b.candidates)
    for x, y in zip(a.pair_r, b.pair_r):
        assert np.array_equal(x, y)
    for x, y in zip(a.pair_s, b.pair_s):
        assert np.array_equal(x, y)


class TestExecutorRecovery:
    def test_fault_free_run_is_clean(self):
        plan = make_plan()
        report = execute_plan(plan, "grid_hash", EPS, backend="serial")
        assert report.attempts == 2  # one per simulated-worker group
        assert report.retries == 0
        assert report.recovery_seconds == 0.0
        assert report.fault_events == []
        assert not report.degraded

    def test_worker_crash_survives_on_processes(self):
        """A really-dying pool worker (os._exit in the child) must not
        fail the join: the pool is rebuilt and the task re-executed."""
        plan = make_plan()
        ref = execute_plan(plan, "grid_hash", EPS, backend="serial")
        report = execute_plan(
            plan, "grid_hash", EPS, backend="processes", max_workers=2,
            faults=FaultPlan.parse("kill:p=1:times=1"),
            retry=RetryPolicy(max_retries=3, backoff_base=0.0),
        )
        assert_same_results(ref, report)
        assert report.attempts > 2
        assert report.pool_rebuilds >= 1
        assert not report.degraded

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_injected_kill_retried(self, backend):
        plan = make_plan()
        ref = execute_plan(plan, "plane_sweep", EPS, backend="serial")
        report = execute_plan(
            plan, "plane_sweep", EPS, backend=backend, max_workers=2,
            faults=FaultPlan.parse("kill:p=1:times=1"),
            retry=RetryPolicy(max_retries=2, backoff_base=0.0),
        )
        assert_same_results(ref, report)
        assert report.attempts == 4  # 2 tasks, each died once
        assert report.recovery_seconds > 0

    def test_degradation_chain_ends_on_serial(self):
        """Zero retry budget: each tier gets one shot, the fault plan
        kills attempts 0 and 1, so only the serial tier's attempt 2
        succeeds -- after walking processes -> threads -> serial."""
        plan = make_plan()
        ref = execute_plan(plan, "grid_hash", EPS, backend="serial")
        report = execute_plan(
            plan, "grid_hash", EPS, backend="processes", max_workers=2,
            faults=FaultPlan.parse("kill:p=1:times=2"),
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
        )
        assert_same_results(ref, report)
        assert report.degraded == ["threads", "serial"]
        assert report.backend_used == "serial"

    def test_budget_exhausted_without_degradation(self):
        plan = make_plan()
        with pytest.raises(RetryBudgetExhausted, match="threads"):
            execute_plan(
                plan, "grid_hash", EPS, backend="threads", max_workers=2,
                faults=FaultPlan.parse("kernel:p=1:times=0"),
                retry=RetryPolicy(max_retries=1, backoff_base=0.0, degrade=False),
            )

    def test_kernel_fault_surfaces_original_error(self):
        plan = make_plan()
        with pytest.raises(RetryBudgetExhausted) as exc:
            execute_plan(
                plan, "plane_sweep", EPS, backend="serial",
                faults=FaultPlan.parse("kernel:p=1:times=0"),
                retry=RetryPolicy(max_retries=0, backoff_base=0.0, degrade=False),
            )
        assert isinstance(exc.value.__cause__, InjectedKernelError)

    def test_speculative_copy_wins_over_straggler(self):
        """One simulated worker sleeps far past the straggler threshold;
        the speculative duplicate finishes first and its result is kept."""
        plan = make_plan()
        ref = execute_plan(plan, "grid_hash", EPS, backend="serial")
        report = execute_plan(
            plan, "grid_hash", EPS, backend="threads", max_workers=2,
            faults=FaultPlan.parse("straggler:worker=0:delay=0.6:times=1"),
            retry=RetryPolicy(max_retries=2, task_timeout=0.05),
        )
        assert_same_results(ref, report)
        assert report.speculative_launched >= 1
        assert report.speculative_wins >= 1

    @pytest.mark.parametrize("backend", BACKENDS + ("cluster",))
    def test_every_tier_accounts_for_a_failed_attempt_alike(self, backend):
        """The policy is the ledger's, so one fault plan reads the same on
        every transport: same attempts, retries, fault events and failures
        as the serial tier, and the backoff waited counts as recovery."""
        plan = make_plan()
        policy = RetryPolicy(max_retries=2, backoff_base=0.05, backoff_factor=1.0)

        def account(backend):
            report = execute_plan(
                plan, "plane_sweep", EPS, backend=backend, max_workers=2,
                faults=FaultPlan.parse("kernel:p=1:times=1"), retry=policy,
            )
            assert report.backend_used == backend
            return report, (
                report.attempts, report.retries, report.task_attempts,
                sorted((e.kind, e.worker, e.attempt) for e in report.fault_events),
                sorted((f.worker, f.attempt) for f in report.failures),
            )

        report, seen = account(backend)
        assert seen == account("serial")[1]
        assert seen[:3] == (4, 2, {0: 2, 1: 2})
        # a daemon reports its kernel's exception by name
        error = "RemoteTaskError" if backend == "cluster" else "InjectedKernelError"
        assert {f.error_type for f in report.failures} == {error}
        # each task failed once and waited out one backoff before its retry
        assert report.recovery_seconds >= 2 * policy.backoff(0)

    def test_shm_segments_released_when_worker_raises(self):
        """Regression: a raising pool worker must not leak the shared
        memory blocks the plan was published through."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir("/dev/shm"))
        plan = make_plan()
        with pytest.raises(RetryBudgetExhausted):
            execute_plan(
                plan, "grid_hash", EPS, backend="processes", max_workers=2,
                faults=FaultPlan.parse("kernel:p=1:times=0"),
                retry=RetryPolicy(max_retries=1, backoff_base=0.0, degrade=False),
            )
        leaked = {
            name for name in set(os.listdir("/dev/shm")) - before
            if name.startswith(("psm_", "repro_"))
        }
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    def test_shm_segments_released_after_crash_recovery(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir("/dev/shm"))
        plan = make_plan()
        execute_plan(
            plan, "grid_hash", EPS, backend="processes", max_workers=2,
            faults=FaultPlan.parse("kill:p=1:times=1"),
            retry=RetryPolicy(max_retries=3, backoff_base=0.0),
        )
        leaked = {
            name for name in set(os.listdir("/dev/shm")) - before
            if name.startswith(("psm_", "repro_"))
        }
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0.0)
        policy = RetryPolicy(backoff_base=0.01, backoff_factor=2.0, backoff_cap=0.03)
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(5) == pytest.approx(0.03)  # capped


# ----------------------------------------------------------------------
# driver-level fetch failures
# ----------------------------------------------------------------------
class TestShuffleFetchFaults:
    def test_fetch_retries_charge_model_not_results(self, small_clusters):
        r, s = small_clusters
        clean = distance_join(r, s, JoinConfig(eps=EPS, method="lpib"))
        faulted = distance_join(
            r, s,
            JoinConfig(eps=EPS, method="lpib", faults="fetch:p=1:times=1",
                       max_retries=2),
        )
        assert np.array_equal(faulted.r_ids, clean.r_ids)
        assert np.array_equal(faulted.s_ids, clean.s_ids)
        assert faulted.metrics.extra["fetch_retries"] > 0
        # re-reads are accounted apart from the paper's remote-read figures
        assert faulted.metrics.remote_bytes == clean.metrics.remote_bytes
        assert faulted.metrics.construction_time_model > (
            clean.metrics.construction_time_model
        )

    def test_fetch_budget_exhausted_raises(self, small_clusters):
        r, s = small_clusters
        cfg = JoinConfig(eps=EPS, method="lpib", faults="fetch:p=1:times=0",
                         max_retries=0)
        with pytest.raises(ShuffleFetchError):
            distance_join(r, s, cfg)


# ----------------------------------------------------------------------
# chaos matrix with the block store and checkpointing enabled: the same
# bit-identity guarantee must hold when recovery is fine-grained, and
# every spill file must be gone when the job returns
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_chaos_matrix_with_block_store(tmp_path, kernel, backend, fault):
    reference = reference_result(kernel)
    assert len(reference) > 0
    r, s, res = chaos_join(
        kernel, backend, faults=FAULT_SPECS[fault], max_retries=3,
        spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
    )
    assert np.array_equal(res.r_ids, reference.r_ids), (kernel, backend, fault)
    assert np.array_equal(res.s_ids, reference.s_ids), (kernel, backend, fault)
    check = validate_join_result(res, r, s, EPS)
    assert check.ok, check.issues
    m = res.metrics
    assert m.fault_events > 0, "the injected fault never fired"
    assert m.blocks_spilled > 0  # map outputs became addressable blocks
    if fault in ("kill", "kernel"):
        # the retried attempts salvaged the cells finished before the fault
        assert m.cells_salvaged > 0, (kernel, backend, fault)
        assert m.salvaged_time_model > 0
    if fault == "fetch":
        # recovery pulled blocks, not whole partitions
        assert m.blocks_refetched > 0
        assert m.extra["refetch_bytes"] > 0
        assert m.recovery_time_model > 0
    # leak check: every spilled block and checkpoint is released on return
    assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"


@pytest.mark.chaos
@pytest.mark.parametrize("backend", BACKENDS)
def test_block_refetch_bytes_strictly_lower(tmp_path, backend):
    """Under identical fetch faults the block store must refetch strictly
    fewer bytes (and strictly less modelled recovery time) than the legacy
    whole-partition re-read."""
    fault = FAULT_SPECS["fetch"]
    no_store = chaos_join("plane_sweep", backend, faults=fault,
                          max_retries=3)[2].metrics
    stored = chaos_join("plane_sweep", backend, faults=fault, max_retries=3,
                        spill="disk", spill_dir=str(tmp_path),
                        checkpoint_cells=True)[2].metrics
    assert stored.extra["refetch_bytes"] > 0  # recovery did happen
    assert stored.extra["refetch_bytes"] < no_store.extra["refetch_bytes"]
    assert stored.recovery_time_model < no_store.recovery_time_model
    assert stored.blocks_refetched > 0
    assert no_store.blocks_refetched == 0


# ----------------------------------------------------------------------
# chaos beyond the point driver: the object and generalized joins share
# the staged pipeline, so the same bit-identity guarantee must hold for
# them -- including with the block store and cell checkpoints enabled
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
def test_chaos_object_join_bit_identical(tmp_path, fault):
    from repro.data.object_generators import random_boxes
    from repro.geometry.point import Side
    from repro.joins.object_join import ObjectSet, object_distance_join

    r = ObjectSet(random_boxes(180, Side.R, seed=11), "R")
    s = ObjectSet(random_boxes(180, Side.S, seed=22), "S")
    reference = object_distance_join(r, s, 0.01, num_workers=3)
    assert len(reference) > 0
    res = object_distance_join(
        r, s, 0.01, num_workers=3,
        execution_backend="threads", executor_workers=2,
        faults=FAULT_SPECS[fault], max_retries=3,
        spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
    )
    assert res.pairs_set() == reference.pairs_set(), fault
    m = res.metrics
    assert m.fault_events > 0, "the injected fault never fired"
    assert m.blocks_spilled > 0
    if fault in ("kill", "kernel"):
        # either the resubmit cost extra attempts or the checkpoints
        # salvaged every cell the killed attempt had finished
        assert (
            m.task_retries > 0 or m.speculative_wins > 0
            or m.cells_salvaged > 0
        )
    if fault == "fetch":
        assert m.blocks_refetched > 0
        assert m.extra["refetch_bytes"] > 0
    assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"


@pytest.mark.chaos
@pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
def test_chaos_generalized_join_bit_identical(tmp_path, fault):
    from repro.data.generators import real_like
    from repro.joins.generalized_join import (
        GeneralizedJoinConfig,
        generalized_distance_join,
    )

    r = gaussian_clusters(260, seed=101, name="R")
    s = real_like(260, seed=11, name="S")
    base = dict(eps=EPS, partition="quadtree", method="lpib", num_workers=3)
    reference = generalized_distance_join(r, s, GeneralizedJoinConfig(**base))
    assert len(reference) > 0
    res = generalized_distance_join(
        r, s,
        GeneralizedJoinConfig(
            **base, execution_backend="threads", executor_workers=2,
            faults=FAULT_SPECS[fault], max_retries=3,
            spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
        ),
    )
    assert res.pairs_set() == reference.pairs_set(), fault
    m = res.metrics
    assert m.fault_events > 0, "the injected fault never fired"
    assert m.blocks_spilled > 0
    if fault in ("kill", "kernel"):
        # either the resubmit cost extra attempts or the checkpoints
        # salvaged every cell the killed attempt had finished
        assert (
            m.task_retries > 0 or m.speculative_wins > 0
            or m.cells_salvaged > 0
        )
    if fault == "fetch":
        assert m.blocks_refetched > 0
        assert m.extra["refetch_bytes"] > 0
    assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"


@pytest.mark.chaos
@pytest.mark.parametrize("abort_faults, expected", [
    ("kernel:p=1:times=0", RetryBudgetExhausted),  # join never finishes
    ("fetch:p=1:times=0", ShuffleFetchError),      # shuffle never heals
])
def test_spill_dir_clean_after_abort(tmp_path, abort_faults, expected):
    """Temp-resource cleanup on abort paths: a job that dies mid-spill
    must still release every block and checkpoint file."""
    r, s = chaos_inputs()
    cfg = JoinConfig(
        eps=EPS, method="lpib", num_workers=3, executor_workers=2,
        execution_backend="threads", local_kernel="plane_sweep",
        spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
        faults=abort_faults, max_retries=1, degrade=False,
    )
    with pytest.raises(expected):
        distance_join(r, s, cfg)
    assert list(tmp_path.iterdir()) == [], "abort leaked spill files"
