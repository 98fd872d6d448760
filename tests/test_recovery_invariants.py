"""Property-style tests for recovery accounting invariants.

The chaos matrix in ``test_fault_tolerance.py`` checks specific fault
kinds one at a time; this module sweeps *mixed* fault plans across
seeds and backends (including the real cluster), asserting the
bookkeeping identities that must hold for ANY run regardless of which
injections happened to fire:

- the answer is always bit-identical to the fault-free serial golden;
- attempt counts, retries and speculation are mutually consistent;
- salvage metrics are zero unless cell checkpoints were enabled;
- refetch counts stay within what was ever spilled (simulated shuffle);
- recovery costs are non-negative, and exactly zero on clean runs.
"""

import numpy as np
import pytest

from repro.data.generators import gaussian_clusters
from repro.engine.faults import FaultPlan
from repro.joins.distance_join import JoinConfig, distance_join
from repro.verify.invariants import validate_join_result

EPS = 0.02
NUM_TASKS = 3  # num_workers below: one executor task per simulated worker

#: Mixed fault plans: probabilistic clauses drawn deterministically from
#: the plan seed, so each (mix, seed) pair is a reproducible scenario.
FAULT_MIXES = {
    "none": None,
    "kill+fetch": "kill:p=0.6:times=1,fetch:p=0.6:times=1",
    "kernel+straggler": (
        "kernel:p=0.6:times=1,straggler:p=0.5:times=1:delay=0.03"
    ),
    "everything": (
        "kill:p=0.4:times=1,kernel:p=0.4:times=1,"
        "straggler:p=0.4:times=1:delay=0.02,fetch:p=0.5:times=1"
    ),
}
SEEDS = (0, 7, 23)


def inputs():
    return (
        gaussian_clusters(420, seed=51, name="R"),
        gaussian_clusters(380, seed=52, name="S"),
    )


_GOLDEN = {}


def golden():
    """Fault-free serial reference, computed once."""
    if "ref" not in _GOLDEN:
        r, s = inputs()
        _GOLDEN["ref"] = distance_join(
            r, s, JoinConfig(eps=EPS, method="lpib", num_workers=NUM_TASKS)
        )
    return _GOLDEN["ref"]


def run_join(mix, seed, backend, tmp_path, checkpoints):
    faults = None
    if FAULT_MIXES[mix] is not None:
        faults = FaultPlan.parse(FAULT_MIXES[mix]).with_seed(seed)
    spill = {}
    if checkpoints:
        spill = dict(
            spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True
        )
    cfg = JoinConfig(
        eps=EPS, method="lpib", num_workers=NUM_TASKS,
        local_kernel="plane_sweep", execution_backend=backend,
        executor_workers=2, faults=faults, max_retries=3,
        **spill,
    )
    r, s = inputs()
    return r, s, distance_join(r, s, cfg)


def check_invariants(res, *, mix, backend, checkpoints):
    """The accounting identities every run must satisfy."""
    m = res.metrics
    tag = (mix, backend, checkpoints)

    # --- result invariance: chaos never changes the answer ------------
    reference = golden()
    assert len(reference) > 0
    assert np.array_equal(res.r_ids, reference.r_ids), tag
    assert np.array_equal(res.s_ids, reference.s_ids), tag

    # --- attempt accounting -------------------------------------------
    assert m.task_attempts >= NUM_TASKS, tag
    assert m.task_retries >= 0 and m.speculative_launched >= 0, tag
    assert m.speculative_wins <= m.speculative_launched, tag
    # every extra attempt is explained by a retry or a speculative copy
    # (the cluster scheduler may additionally re-queue a submission that
    # never reached a daemon, which consumes no attempt)
    assert (
        m.task_attempts <= NUM_TASKS + m.task_retries
        + m.speculative_launched
    ), tag

    # --- recovery cost accounting -------------------------------------
    assert m.recovery_seconds >= 0.0, tag
    assert m.recovery_time_model >= 0.0, tag
    if mix == "none":
        assert m.fault_events == 0, tag
        assert m.task_retries == 0, tag
        assert m.recovery_seconds == 0.0, tag
        assert m.blocks_refetched == 0, tag

    # --- salvage requires checkpoints ---------------------------------
    if not checkpoints:
        assert m.cells_salvaged == 0, tag
    if m.cells_salvaged == 0:
        assert m.salvaged_seconds == 0.0, tag
        assert m.salvaged_time_model == 0.0, tag
    else:
        assert m.blocks_spilled > 0, tag  # checkpoints imply a store

    # --- refetch bounded by what was ever addressable -----------------
    if backend != "cluster":
        # the simulated shuffle can only refetch spilled blocks (each at
        # most once per failed attempt)
        if m.blocks_spilled == 0:
            assert m.blocks_refetched == 0, tag
        else:
            assert m.blocks_refetched <= m.blocks_spilled * 4, tag


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mix", sorted(FAULT_MIXES))
def test_invariants_hold_threads(tmp_path, mix, seed):
    r, s, res = run_join(mix, seed, "threads", tmp_path, True)
    check_invariants(res, mix=mix, backend="threads", checkpoints=True)
    check = validate_join_result(res, r, s, EPS)
    assert check.ok, check.issues
    assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mix", sorted(FAULT_MIXES))
def test_invariants_hold_without_checkpoints(tmp_path, mix, seed):
    _, _, res = run_join(mix, seed, "threads", tmp_path, False)
    check_invariants(res, mix=mix, backend="threads", checkpoints=False)


@pytest.mark.chaos
@pytest.mark.cluster
@pytest.mark.parametrize("mix", sorted(FAULT_MIXES))
def test_invariants_hold_cluster(tmp_path, mix):
    """The same identities on the real multi-process cluster, where a
    fired kill is an actual SIGKILL and refetches cross sockets."""
    r, s, res = run_join(mix, 0, "cluster", tmp_path, True)
    check_invariants(res, mix=mix, backend="cluster", checkpoints=True)
    check = validate_join_result(res, r, s, EPS)
    assert check.ok, check.issues
    m = res.metrics
    assert m.extra["cluster_daemons_spawned"] >= 1
    assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"
