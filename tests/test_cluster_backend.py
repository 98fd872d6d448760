"""Cluster backend tests: real multi-process daemons over localhost
sockets, driven through the full join pipeline.

The guarantees under test mirror the simulated backends' chaos matrix,
but here the failures are *real*: daemons SIGKILL themselves mid-join,
block servers die mid-fetch, heartbeats go silent -- and the answer must
still be bit-identical to a fault-free serial run, with the recovery
visible in the metrics (``blocks_refetched``, ``cells_salvaged``,
``cluster_daemons_lost``, ``cluster_daemon_rejoins``).

Every test here carries the ``cluster`` marker, which arms the per-test
SIGALRM deadline from ``conftest.py`` -- a wedged daemon or deadlocked
socket fails fast instead of hanging the suite.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.engine.cluster_backend.coordinator as coord_mod
from repro.data.generators import gaussian_clusters
from repro.engine import hygiene
from repro.engine.cluster_backend import (
    ClusterConfig,
    ClusterService,
    ClusterUnavailable,
)
from repro.engine.executor import RetryPolicy, execute_plan
from repro.engine.faults import FaultPlan
from repro.engine.telemetry import Telemetry, validate_span_tree
from repro.joins.distance_join import JoinConfig, distance_join
from repro.verify.invariants import validate_join_result

from tests.test_fault_tolerance import assert_same_results, make_plan

pytestmark = pytest.mark.cluster

EPS = 0.02


def cluster_inputs():
    return (
        gaussian_clusters(420, seed=51, name="R"),
        gaussian_clusters(380, seed=52, name="S"),
    )


def cluster_join(**overrides):
    """A small distance join on the real cluster backend."""
    r, s = cluster_inputs()
    cfg = JoinConfig(
        eps=EPS,
        method="lpib",
        num_workers=3,
        local_kernel="plane_sweep",
        execution_backend="cluster",
        executor_workers=2,
        **overrides,
    )
    return r, s, distance_join(r, s, cfg)


_REFERENCE = {}


def reference_result():
    """Fault-free serial run, computed once per module."""
    if "ref" not in _REFERENCE:
        r, s = cluster_inputs()
        cfg = JoinConfig(eps=EPS, method="lpib", num_workers=3,
                         local_kernel="plane_sweep")
        _REFERENCE["ref"] = distance_join(r, s, cfg)
    return _REFERENCE["ref"]


def assert_bit_identical(res, tag=""):
    reference = reference_result()
    assert len(reference) > 0
    assert np.array_equal(res.r_ids, reference.r_ids), tag
    assert np.array_equal(res.s_ids, reference.s_ids), tag


def dead_pid() -> int:
    """A pid that provably names no live process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    assert not hygiene.pid_alive(proc.pid)
    return proc.pid


# ----------------------------------------------------------------------
# fault-free operation
# ----------------------------------------------------------------------
class TestClusterBasics:
    def test_fault_free_bit_identical(self):
        r, s, res = cluster_join(cluster_daemons=2)
        assert_bit_identical(res)
        check = validate_join_result(res, r, s, EPS)
        assert check.ok, check.issues
        m = res.metrics
        assert m.extra["cluster_daemons_spawned"] >= 2
        assert "cluster_daemons_lost" not in m.extra
        assert m.blocks_refetched == 0  # no recovery on a clean run

    def test_cluster_config_coerce(self):
        cfg = ClusterConfig(daemons=3, heartbeat_timeout=1.0)
        assert ClusterConfig.coerce(cfg) is cfg
        assert ClusterConfig.coerce(None) == ClusterConfig()
        mapped = ClusterConfig.coerce(
            {"daemons": 2, "fetch_timeout": 0.5}
        )
        assert mapped.daemons == 2
        assert mapped.fetch_timeout == 0.5
        # unset keys keep their defaults
        assert mapped.heartbeat_interval == ClusterConfig().heartbeat_interval

    def test_executor_reports_cluster_tier(self):
        plan = make_plan()
        ref = execute_plan(plan, "grid_hash", EPS, backend="serial")
        report = execute_plan(
            plan, "grid_hash", EPS, backend="cluster", max_workers=2,
        )
        assert_same_results(ref, report)
        assert report.backend_used == "cluster"
        assert report.os_workers == 2
        assert report.daemons_spawned >= 2
        assert not report.degraded


# ----------------------------------------------------------------------
# chaos: real SIGKILLs, dead block servers, silent heartbeats
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestClusterChaos:
    def test_kill_mid_local_join_salvages_and_refetches(self, tmp_path):
        """A daemon SIGKILLs itself mid-join; its blocks die with it.
        The retry must refetch from the coordinator's authoritative copy
        and resume from the disk checkpoints the dead attempt left."""
        r, s, res = cluster_join(
            cluster_daemons=2, faults="kill:p=1:times=1", max_retries=3,
            spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
        )
        assert_bit_identical(res, "kill")
        check = validate_join_result(res, r, s, EPS)
        assert check.ok, check.issues
        m = res.metrics
        assert m.fault_events > 0, "the injected kill never fired"
        assert m.extra["cluster_daemons_lost"] >= 1
        assert m.blocks_refetched > 0  # dead daemon's blocks re-pulled
        assert m.cells_salvaged > 0  # checkpoints survived the SIGKILL
        assert m.task_retries > 0 or m.speculative_wins > 0
        assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"

    def test_serve_kill_mid_fetch(self):
        """The daemon holding a task's blocks is SIGKILLed while serving
        the fetch; the fetcher falls back to the coordinator's copy."""
        r, s, res = cluster_join(
            cluster_daemons=2, faults="serve:worker=2", max_retries=3,
        )
        assert_bit_identical(res, "serve")
        check = validate_join_result(res, r, s, EPS)
        assert check.ok, check.issues
        m = res.metrics
        assert m.fault_events > 0, "the injected serve-kill never fired"
        assert m.extra["cluster_daemons_lost"] >= 1
        assert m.blocks_refetched > 0

    def test_heartbeat_delay_false_positive_rejoin(self):
        """A healthy-but-silent daemon is declared lost (its work is
        requeued), then its delayed beat arrives and it rejoins.  The
        straggler delay keeps first attempts running long enough for the
        timeout check to actually fire."""
        r, s, res = cluster_join(
            cluster_daemons=2,
            faults="straggler:delay=0.8,heartbeat:worker=0:delay=0.5",
            max_retries=3,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.2,
        )
        assert_bit_identical(res, "heartbeat")
        m = res.metrics
        assert m.extra["cluster_daemons_lost"] >= 1
        assert m.extra["cluster_daemon_rejoins"] >= 1

    def test_external_sigkill_by_pid(self, monkeypatch):
        """SIGKILL a daemon from *outside* the fault plan, mid-job: the
        coordinator must detect the EOF, fail its flights, respawn, and
        still deliver the bit-identical answer."""
        captured = {}
        orig_start = ClusterService.start

        def capturing_start(self, n):
            orig_start(self, n)
            captured["service"] = self

        monkeypatch.setattr(ClusterService, "start", capturing_start)

        def killer():
            deadline = time.monotonic() + 10.0
            while "service" not in captured and time.monotonic() < deadline:
                time.sleep(0.01)
            service = captured.get("service")
            if service is None:  # pragma: no cover - start itself failed
                return
            time.sleep(0.15)  # let the straggling first attempts start
            pid = service.daemon_pid(0)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)

        thread = threading.Thread(target=killer)
        thread.start()
        try:
            r, s, res = cluster_join(
                cluster_daemons=2,
                faults="straggler:delay=0.6:times=1",
                max_retries=3,
            )
        finally:
            thread.join()
        assert_bit_identical(res, "external kill")
        assert res.metrics.extra["cluster_daemons_lost"] >= 1


# ----------------------------------------------------------------------
# membership and degradation
# ----------------------------------------------------------------------
class TestClusterMembership:
    def test_elastic_membership(self):
        """Daemons are real processes that can join and leave."""
        service = ClusterService(ClusterConfig(sweep_on_start=False))
        with service:
            service.start(2)
            assert service.live_daemons() == [0, 1]
            pids = [service.daemon_pid(i) for i in (0, 1)]
            assert all(p and hygiene.pid_alive(p) for p in pids)
            assert len(set(pids)) == 2  # distinct processes

            new_id = service.add_daemon()
            assert new_id == 2
            deadline = time.monotonic() + 10.0
            while (
                len(service.live_daemons()) < 3
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert service.live_daemons() == [0, 1, 2]

            service.remove_daemon(1)
            assert 1 not in service.live_daemons()
        # close() tears every process down
        deadline = time.monotonic() + 10.0
        while (
            any(hygiene.pid_alive(p) for p in pids)
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert not any(hygiene.pid_alive(p) for p in pids)

    def test_scales_work_across_added_daemon(self):
        """Work submitted after an add_daemon lands on the new member:
        run a join with 1 initial daemon but 3 simulated workers and let
        elasticity come from respawn-free dispatch."""
        r, s, res = cluster_join(cluster_daemons=1)
        assert_bit_identical(res, "single daemon")
        assert res.metrics.extra["cluster_daemons_spawned"] >= 1

    def test_degrades_to_processes_when_cluster_unavailable(
        self, monkeypatch
    ):
        def failing_start(self, n):
            raise ClusterUnavailable("injected: no daemons for you")

        monkeypatch.setattr(ClusterService, "start", failing_start)
        plan = make_plan()
        ref = execute_plan(plan, "grid_hash", EPS, backend="serial")
        report = execute_plan(
            plan, "grid_hash", EPS, backend="cluster", max_workers=2,
            retry=RetryPolicy(max_retries=2, backoff_base=0.0),
        )
        assert_same_results(ref, report)
        assert report.degraded[0] == "processes"
        assert report.backend_used in ("processes", "threads", "serial")

    def test_degradation_chain_reaches_serial(self, monkeypatch):
        """cluster -> processes -> threads -> serial: with a zero retry
        budget and a kill on attempts 0-2, only the serial tier's
        attempt 3 survives."""
        plan = make_plan()
        ref = execute_plan(plan, "grid_hash", EPS, backend="serial")
        report = execute_plan(
            plan, "grid_hash", EPS, backend="cluster", max_workers=2,
            faults=FaultPlan.parse("kill:p=1:times=3"),
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
        )
        assert_same_results(ref, report)
        assert report.degraded == ["processes", "threads", "serial"]
        assert report.backend_used == "serial"


# ----------------------------------------------------------------------
# telemetry: spans merged across process boundaries
# ----------------------------------------------------------------------
class TestClusterTelemetry:
    def test_traced_run_has_valid_merged_span_tree(self):
        telemetry = Telemetry.create()
        r, s = cluster_inputs()
        cfg = JoinConfig(
            eps=EPS, method="lpib", num_workers=3,
            local_kernel="plane_sweep", execution_backend="cluster",
            executor_workers=2, cluster_daemons=2, telemetry=telemetry,
        )
        res = distance_join(r, s, cfg)
        assert_bit_identical(res, "traced")
        spans = telemetry.tracer.spans()
        validate_span_tree(spans)  # single root, no orphans, nesting ok
        remote = [s for s in spans if s.attrs.get("daemon") is not None]
        assert remote, "no daemon-side spans were merged back"
        # every remote span hangs off a coordinator-side scheduler span
        by_id = {s.span_id: s for s in spans}
        for span in remote:
            assert span.parent_id in by_id

    def test_chaos_run_spans_stay_consistent(self, tmp_path):
        telemetry = Telemetry.create()
        r, s = cluster_inputs()
        cfg = JoinConfig(
            eps=EPS, method="lpib", num_workers=3,
            local_kernel="plane_sweep", execution_backend="cluster",
            executor_workers=2, cluster_daemons=2, telemetry=telemetry,
            faults="kill:p=1:times=1", max_retries=3,
            spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
        )
        res = distance_join(r, s, cfg)
        assert_bit_identical(res, "traced chaos")
        validate_span_tree(telemetry.tracer.spans())


# ----------------------------------------------------------------------
# startup hygiene: reclaiming what a crashed run left behind
# ----------------------------------------------------------------------
class TestStartupHygiene:
    def test_sweep_removes_only_provably_dead_resources(self, tmp_path):
        stale_pid = dead_pid()
        tmp_root = tmp_path / "tmp"
        shm_dir = tmp_path / "shm"
        tmp_root.mkdir()
        shm_dir.mkdir()

        # stale spill dir (dead owner) -> removed
        stale_dir = tmp_root / "repro-spill-stale"
        stale_dir.mkdir()
        (stale_dir / "block_R_0000_0001.npz").write_bytes(b"x")
        hygiene.write_owner_marker(str(stale_dir), pid=stale_pid)
        # live-owner dir -> kept
        live_dir = tmp_root / "repro-ckpt-live"
        live_dir.mkdir()
        hygiene.write_owner_marker(str(live_dir))
        # unmarked dir -> kept (cannot attribute an owner)
        unmarked = tmp_root / "repro-spill-unmarked"
        unmarked.mkdir()
        # unrelated dir -> never considered
        other = tmp_root / "someone-elses-data"
        other.mkdir()

        # orphaned shm segment (dead owner embedded in name) -> removed
        stale_seg = shm_dir / f"repro_{stale_pid}_0_abc123"
        stale_seg.write_bytes(b"y")
        # live segment -> kept
        live_seg = shm_dir / f"repro_{os.getpid()}_1_def456"
        live_seg.write_bytes(b"z")
        # foreign segment -> never considered
        foreign_seg = shm_dir / "psm_whatever"
        foreign_seg.write_bytes(b"w")

        report = hygiene.sweep_stale_resources(
            tmp_root=str(tmp_root), shm_dir=str(shm_dir)
        )
        assert report["dirs_removed"] == [str(stale_dir)]
        assert report["segments_removed"] == [stale_seg.name]
        assert not stale_dir.exists()
        assert not stale_seg.exists()
        assert live_dir.exists() and unmarked.exists() and other.exists()
        assert live_seg.exists() and foreign_seg.exists()
        assert str(live_dir) in report["skipped"]
        assert str(unmarked) in report["skipped"]

    def test_sweep_is_idempotent_and_safe_on_empty(self, tmp_path):
        report = hygiene.sweep_stale_resources(
            tmp_root=str(tmp_path), shm_dir=str(tmp_path / "missing")
        )
        assert report == {
            "dirs_removed": [], "segments_removed": [],
            "sockets_removed": [], "skipped": [],
        }

    def test_shm_owner_parsing(self):
        assert hygiene.shm_segment_owner("repro_1234_0_ab") == 1234
        assert hygiene.shm_segment_owner("repro_bogus") is None
        assert hygiene.shm_segment_owner("psm_1234") is None
        assert hygiene.pid_alive(os.getpid())
        assert not hygiene.pid_alive(0)
        assert not hygiene.pid_alive(dead_pid())

    def test_cluster_start_runs_the_sweep(self, monkeypatch):
        """A dirty start is healed before any daemon spawns."""
        calls = []

        def recording_sweep(*args, **kwargs):
            calls.append(1)
            return {"dirs_removed": [], "segments_removed": [],
                    "skipped": []}

        monkeypatch.setattr(
            coord_mod, "sweep_stale_resources", recording_sweep
        )
        with ClusterService(ClusterConfig(sweep_on_start=True)) as service:
            service.start(1)
        assert calls == [1]

        calls.clear()
        with ClusterService(ClusterConfig(sweep_on_start=False)) as service:
            service.start(1)
        assert calls == []

    def test_spill_dirs_are_owner_tagged(self, tmp_path):
        """The block store tags the directories it creates, so a future
        sweep can attribute them."""
        from repro.engine.blockstore import BlockId, BlockStore

        target = tmp_path / "spill"
        with BlockStore("disk", spill_dir=str(target)) as store:
            store.put(
                BlockId("R", 0, 0),
                {"cells": np.arange(4, dtype=np.int64)},
                records=4, logical_bytes=128,
            )
            marker = target / hygiene.OWNER_MARKER
            assert marker.exists()
            assert int(marker.read_text()) == os.getpid()
