"""Tests for the resident join server (``repro.serving``).

Covers the tentpole guarantees end to end:

* served results are **bit-identical** to the one-shot driver on every
  path -- cold build, warm artifact-cache build, result-cache hit;
* the artifact cache hits on the second identical query and evicts
  under its byte budget;
* admission control coalesces identical concurrent queries and rejects
  beyond the queue bound;
* concurrent clients interleave cache hits and misses safely;
* the hygiene sweep reclaims stale pid-stamped server state dirs and
  socket files, and never touches a live owner's;
* one-shot-only flags (fault injection, spill) are rejected with
  targeted errors at the protocol layer;
* perfsmoke: a warm query beats a cold one by a pinned factor.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.engine.hygiene import (
    SERVE_PREFIX,
    sweep_stale_resources,
    write_owner_marker,
)
from repro.joins.distance_join import JoinConfig, distance_join
from repro.serving import (
    AdmissionController,
    ArtifactCache,
    DatasetRegistry,
    ProtocolError,
    QueryRejected,
    ServerConfig,
    ServerError,
    connect,
    dataset_fingerprint,
    estimate_nbytes,
    grid_partition_key,
    query_key,
    start_in_thread,
)

BASE_N = 1200
EPS = 0.012


@pytest.fixture(scope="module")
def inputs():
    r = load_dataset("R1", base_n=BASE_N)
    s = load_dataset("S1", base_n=BASE_N)
    return r, s


@pytest.fixture(scope="module")
def oneshot(inputs):
    """The reference one-shot result for the server's default query."""
    r, s = inputs
    return distance_join(r, s, JoinConfig(eps=EPS))


@pytest.fixture()
def server():
    handle = start_in_thread(
        ServerConfig(backend="serial", max_inflight=2, max_queue=8)
    )
    try:
        yield handle
    finally:
        handle.stop()


def _register(client):
    client.register("R", "R1", base_n=BASE_N)
    client.register("S", "S1", base_n=BASE_N)


def _pairs(response):
    return [tuple(p) for p in response["pairs"]]


#: Measured wall clocks: legitimately different run to run.  Everything
#: else in the metrics payload is deterministic and must replay exactly.
_WALL_KEYS = ("stage_times", "join_wall_makespan")


def _deterministic(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k not in _WALL_KEYS}


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_hit_miss_counters(self):
        cache = ArtifactCache(1_000_000)
        assert cache.get(("k",)) is None
        cache.put(("k",), {"x": np.arange(10)})
        assert cache.get(("k",)) is not None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["bytes"] > 0

    def test_evicts_lru_under_budget(self):
        entry = np.zeros(128, dtype=np.uint8)  # 128 bytes each
        cache = ArtifactCache(300)
        cache.put(("a",), entry)
        cache.put(("b",), entry)
        cache.get(("a",))  # "a" becomes most-recent
        cache.put(("c",), entry)  # over budget: evict LRU = "b"
        assert cache.contains(("a",))
        assert not cache.contains(("b",))
        assert cache.contains(("c",))
        assert cache.stats()["evictions"] == 1

    def test_never_evicts_the_just_inserted_entry(self):
        cache = ArtifactCache(10)  # smaller than any entry
        cache.put(("big",), np.zeros(1000, dtype=np.uint8))
        assert cache.contains(("big",))

    def test_estimate_nbytes_walks_containers(self):
        a = np.zeros(1000, dtype=np.uint8)
        b = np.zeros(1000, dtype=np.uint8)
        assert estimate_nbytes(a) >= 1000
        assert estimate_nbytes({"a": a, "b": [b]}) >= 2000
        # the same array referenced twice is counted once
        assert estimate_nbytes([a, a]) < 2000


# ----------------------------------------------------------------------
# fingerprints and cache keys
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_same_content_same_fingerprint(self, inputs):
        r, _ = inputs
        again = load_dataset("R1", base_n=BASE_N)
        assert dataset_fingerprint(r) == dataset_fingerprint(again)

    def test_different_content_differs(self, inputs):
        r, s = inputs
        assert dataset_fingerprint(r) != dataset_fingerprint(s)

    def test_key_tracks_build_inputs(self, inputs):
        r, s = inputs
        fr, fs = dataset_fingerprint(r), dataset_fingerprint(s)
        base = grid_partition_key(JoinConfig(eps=EPS), fr, fs)
        assert grid_partition_key(JoinConfig(eps=EPS), fr, fs) == base
        assert grid_partition_key(JoinConfig(eps=0.02), fr, fs) != base
        assert (
            grid_partition_key(JoinConfig(eps=EPS, method="diff"), fr, fs)
            != base
        )
        # the kernel affects the query, not the build
        k1 = query_key(JoinConfig(eps=EPS), fr, fs)
        k2 = query_key(
            JoinConfig(eps=EPS, local_kernel="grid_hash"), fr, fs
        )
        assert k1 != k2
        assert (
            grid_partition_key(
                JoinConfig(eps=EPS, local_kernel="grid_hash"), fr, fs
            )
            == base
        )


# ----------------------------------------------------------------------
# dataset registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_idempotent_reregistration(self, inputs):
        r, _ = inputs
        reg = DatasetRegistry()
        first = reg.register("R", r)
        assert reg.register("R", r) is first

    def test_conflicting_content_requires_replace(self, inputs):
        r, s = inputs
        reg = DatasetRegistry()
        reg.register("D", r)
        with pytest.raises(ValueError, match="replace=True"):
            reg.register("D", s)
        entry = reg.register("D", s, replace=True)
        assert entry.fingerprint == dataset_fingerprint(s)

    def test_unknown_name_lists_registered(self, inputs):
        r, _ = inputs
        reg = DatasetRegistry()
        reg.register("R", r)
        with pytest.raises(KeyError, match="R"):
            reg.get("missing")


# ----------------------------------------------------------------------
# admission control (pure asyncio, no server)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_coalesces_identical_keys(self):
        async def scenario():
            ctrl = AdmissionController(max_inflight=1, max_queue=4)
            calls = 0

            async def slow():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.05)
                return "answer"

            results = await asyncio.gather(
                *(ctrl.run(("q",), slow) for _ in range(5))
            )
            return calls, results, ctrl.stats()

        calls, results, stats = asyncio.run(scenario())
        assert calls == 1
        assert results == ["answer"] * 5
        assert stats["coalesced"] == 4
        assert stats["admitted"] == 1

    def test_rejects_beyond_queue(self):
        async def scenario():
            ctrl = AdmissionController(max_inflight=1, max_queue=1)

            async def slow():
                await asyncio.sleep(0.2)
                return "x"

            tasks = [
                asyncio.ensure_future(ctrl.run((i,), slow)) for i in range(4)
            ]
            await asyncio.sleep(0.02)  # let them race for the slot
            done = await asyncio.gather(*tasks, return_exceptions=True)
            return done, ctrl.stats()

        done, stats = asyncio.run(scenario())
        rejected = [d for d in done if isinstance(d, QueryRejected)]
        assert stats["rejected"] == len(rejected) >= 1
        assert stats["completed"] >= 1

    def test_failure_propagates_to_coalesced_waiters(self):
        async def scenario():
            ctrl = AdmissionController(max_inflight=1)

            async def boom():
                await asyncio.sleep(0.02)
                raise RuntimeError("kernel exploded")

            tasks = [
                asyncio.ensure_future(ctrl.run(("q",), boom))
                for _ in range(3)
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)


# ----------------------------------------------------------------------
# the server end to end
# ----------------------------------------------------------------------
@pytest.mark.serving
class TestServedResults:
    def test_cold_and_warm_bit_identical_to_oneshot(self, server, oneshot):
        expected = sorted(zip(oneshot.r_ids.tolist(), oneshot.s_ids.tolist()))
        with connect(server.address) as c:
            _register(c)
            cold = c.query("R", "S", eps=EPS)
            assert not cold["cached_result"] and not cold["warm_artifacts"]
            assert sorted(_pairs(cold)) == expected

            hit = c.query("R", "S", eps=EPS)
            assert hit["cached_result"]
            assert sorted(_pairs(hit)) == expected
            assert hit["metrics"] == cold["metrics"]

            # force a re-run through the pipeline: the artifact cache
            # must be warm and the answer still bit-identical
            warm = c.query("R", "S", eps=EPS, reuse_results=False)
            assert not warm["cached_result"] and warm["warm_artifacts"]
            assert sorted(_pairs(warm)) == expected
            assert _deterministic(warm["metrics"]) == _deterministic(
                cold["metrics"]
            )
            # the warm build skips construction entirely: its measured
            # build stage must be a blip next to the cold one
            assert (
                warm["metrics"]["stage_times"]["build_partition"]
                < cold["metrics"]["stage_times"]["build_partition"]
            )

            stats = c.stats()
            assert stats["artifact_cache"]["hits"] > 0
            assert stats["result_cache"]["hits"] > 0
            assert stats["serving"]["cold_builds"] == 1
            assert stats["serving"]["warm_builds"] == 1

    def test_distinct_configs_do_not_share_results(self, server, inputs):
        r, s = inputs
        other = distance_join(r, s, JoinConfig(eps=EPS, method="uni_r"))
        with connect(server.address) as c:
            _register(c)
            got = c.query("R", "S", eps=EPS, method="uni_r")
            assert sorted(_pairs(got)) == sorted(
                zip(other.r_ids.tolist(), other.s_ids.tolist())
            )
            assert got["metrics"]["method"] == "uni_r"

    def test_max_pairs_truncates_payload_not_count(self, server, oneshot):
        with connect(server.address) as c:
            _register(c)
            got = c.query("R", "S", eps=EPS, max_pairs=5)
            assert got["results"] == len(oneshot.r_ids)
            assert len(got["pairs"]) == 5
            assert got["pairs_truncated"]

    def test_rtree_range_query(self, server, inputs):
        r, _ = inputs
        box = (0.2, 0.2, 0.6, 0.6)
        inside = (
            (r.xs >= box[0]) & (r.xs <= box[2])
            & (r.ys >= box[1]) & (r.ys <= box[3])
        )
        expected = sorted(r.ids[inside].tolist())
        with connect(server.address) as c:
            _register(c)
            got = c.range("R", box)
            assert got["count"] == len(expected)
            assert got["ids"] == expected
            again = c.range("R", box)
            assert again["ids"] == expected
            # second call reuses the cached index
            stats = c.stats()["artifact_cache"]
            assert stats["hits"] >= 1


@pytest.mark.serving
class TestConcurrency:
    def test_concurrent_queries_interleave_hits_and_misses(
        self, server, oneshot, inputs
    ):
        """Acceptance: >= 2 concurrent queries, answers bit-identical,
        cache hits and misses interleaved across client threads."""
        r, s = inputs
        other = distance_join(r, s, JoinConfig(eps=0.02))
        expected = {
            EPS: sorted(zip(oneshot.r_ids.tolist(), oneshot.s_ids.tolist())),
            0.02: sorted(zip(other.r_ids.tolist(), other.s_ids.tolist())),
        }
        with connect(server.address) as c:
            _register(c)
        jobs = [EPS, 0.02, EPS, 0.02, EPS, 0.02]
        outcomes: list = [None] * len(jobs)

        def worker(i, eps):
            with connect(server.address) as c:
                outcomes[i] = (eps, c.query("R", "S", eps=eps))

        threads = [
            threading.Thread(target=worker, args=(i, eps))
            for i, eps in enumerate(jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=50)
        assert all(o is not None for o in outcomes)
        for eps, response in outcomes:
            assert sorted(_pairs(response)) == expected[eps]
        with connect(server.address) as c:
            stats = c.stats()
        serving = stats["serving"]
        assert serving["queries"] == len(jobs)
        # both keys were built at most once; everything else was a
        # result-cache hit or a coalesced flight
        assert serving["cold_builds"] + serving["warm_builds"] <= 4
        reused = (
            serving["result_cache_hits"] + stats["admission"]["coalesced"]
        )
        assert reused >= len(jobs) - 2

    def test_identical_inflight_queries_coalesce(self, server):
        with connect(server.address) as c:
            _register(c)
        results: list = [None] * 3

        def worker(i):
            with connect(server.address) as c:
                # reuse_results=False forces the pipeline every time, so
                # concurrent identical queries must share one flight
                results[i] = c.query(
                    "R", "S", eps=0.02, reuse_results=False
                )

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=50)
        assert all(r is not None for r in results)
        first = sorted(_pairs(results[0]))
        assert all(sorted(_pairs(r)) == first for r in results)
        with connect(server.address) as c:
            stats = c.stats()
        assert (
            stats["admission"]["coalesced"]
            + stats["serving"]["result_cache_hits"]
        ) >= 1


    def test_overlapping_large_queries_keep_their_own_pairs(self):
        """Two large queries in flight at once lease different slabs: each
        response, and each cached result, is its own query's pairs."""
        from repro.data.pointset import PointSet

        def dense(seed, n=3000):
            rng = np.random.default_rng(seed)
            return [
                PointSet(
                    rng.normal(0.5, 0.04, n).clip(0, 1),
                    rng.normal(0.5, 0.04, n).clip(0, 1), name=name,
                )
                for name in "RS"
            ]

        sets = {"a": dense(61), "b": dense(71)}
        fields = dict(eps=0.02, kernel="grid_hash", workers=3)
        expected = {
            tag: distance_join(
                r, s, JoinConfig(eps=0.02, local_kernel="grid_hash", num_workers=3)
            )
            for tag, (r, s) in sets.items()
        }
        expected = {
            tag: (res.r_ids.copy(), res.s_ids.copy()) for tag, res in expected.items()
        }
        assert all(8 * len(r) > 1 << 20 for r, _ in expected.values())  # pool-sized
        handle = start_in_thread(ServerConfig(backend="serial", max_inflight=2))
        try:
            for tag, (r, s) in sets.items():
                handle.server.datasets.register(f"R{tag}", r)
                handle.server.datasets.register(f"S{tag}", s)
            barrier = threading.Barrier(2)
            failures = []

            def client(tag):
                want_r, want_s = expected[tag]
                head = np.column_stack((want_r, want_s))[:5000].tolist()
                try:
                    with connect(handle.address) as c:
                        for _ in range(4):
                            barrier.wait(timeout=30)
                            got = c.query(
                                f"R{tag}", f"S{tag}", max_pairs=5000,
                                reuse_results=False, **fields,
                            )
                            assert got["results"] == len(want_r)
                            assert got["pairs"] == head
                except BaseException as exc:  # surfaced on the main thread
                    failures.append(exc)
                    barrier.abort()

            threads = [threading.Thread(target=client, args=(tag,)) for tag in sets]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            srv = handle.server
            cached = [value for value, _nbytes in srv._results._entries.values()]
            assert len(cached) == 2
            for r_ids, s_ids, _ in cached:
                assert any(
                    np.array_equal(r_ids, want_r) and np.array_equal(s_ids, want_s)
                    for want_r, want_s in expected.values()
                )
        finally:
            handle.stop()


@pytest.mark.serving
class TestEviction:
    def test_artifact_cache_eviction_under_budget(self):
        """A tiny artifact budget evicts bundles but never corrupts."""
        handle = start_in_thread(
            ServerConfig(backend="serial", cache_budget_bytes=1000)
        )
        try:
            with connect(handle.address) as c:
                _register(c)
                a = c.query("R", "S", eps=EPS, reuse_results=False)
                b = c.query("R", "S", eps=0.02, reuse_results=False)
                again = c.query("R", "S", eps=EPS, reuse_results=False)
                assert sorted(_pairs(a)) == sorted(_pairs(again))
                stats = c.stats()["artifact_cache"]
                assert stats["evictions"] >= 1
                assert stats["entries"] == 1  # budget keeps one bundle
                assert b["results"] != 0
        finally:
            handle.stop()

    def test_result_cache_owns_its_bytes(self, server, oneshot):
        """A cached result is an exact-size copy: it keeps neither the
        job's columns (allocated for every candidate, shrunk in place)
        nor anything else alive, and the cache's byte count is what it
        holds."""
        srv = server.server
        payload = {"results": len(oneshot)}
        srv._result_cache_put(("owns",), oneshot, payload)
        r_ids, s_ids, meta = srv._results.get(("owns",))
        assert meta == payload
        for cached, column in ((r_ids, oneshot.r_ids), (s_ids, oneshot.s_ids)):
            np.testing.assert_array_equal(cached, column)
            assert not np.shares_memory(cached, column)
            assert cached.base is None and cached.flags.owndata
        held = r_ids.nbytes + s_ids.nbytes + estimate_nbytes(payload)
        assert srv._results.stats()["bytes"] == held

    def test_result_cache_eviction_falls_back_to_rerun(self):
        """Dropped result blocks are re-computed, not served as holes."""
        handle = start_in_thread(
            ServerConfig(backend="serial", result_cache_bytes=64)
        )
        try:
            with connect(handle.address) as c:
                _register(c)
                first = c.query("R", "S", eps=EPS)
                second = c.query("R", "S", eps=EPS)
                # the block was too big to stay resident: the second
                # query re-ran the pipeline (warm artifacts) instead of
                # serving a dropped block
                assert not second["cached_result"]
                assert second["warm_artifacts"]
                assert sorted(_pairs(second)) == sorted(_pairs(first))
        finally:
            handle.stop()


@pytest.mark.serving
class TestProtocolValidation:
    def test_one_shot_flags_rejected_with_clear_error(self, server):
        with connect(server.address) as c:
            _register(c)
            with pytest.raises(ServerError, match="one-shot"):
                c.query("R", "S", eps=EPS, faults="kill:p=1")
            with pytest.raises(ServerError, match="one-shot"):
                c.query("R", "S", eps=EPS, spill="disk")
            with pytest.raises(ServerError, match="one-shot"):
                c.query("R", "S", eps=EPS, backend="cluster")

    def test_unknown_fields_and_bad_values_rejected(self, server):
        with connect(server.address) as c:
            _register(c)
            with pytest.raises(ServerError, match="unknown query field"):
                c.query("R", "S", eps=EPS, blorp=3)
            # one execution path: no query field selects another
            with pytest.raises(ServerError, match=r"unknown query field\(s\): fused"):
                c.query("R", "S", eps=EPS, fused=False)
            with pytest.raises(ServerError, match="eps must be positive"):
                c.query("R", "S", eps=-1.0)
            with pytest.raises(ServerError, match="method must be one of"):
                c.query("R", "S", eps=EPS, method="bogus")
            with pytest.raises(ServerError, match="not registered"):
                c.query("R", "missing", eps=EPS)

    def test_malformed_requests_get_protocol_errors(self, server):
        import socket as socketlib

        path = server.socket_path
        with socketlib.socket(
            socketlib.AF_UNIX, socketlib.SOCK_STREAM
        ) as sock:
            sock.settimeout(10)
            sock.connect(path)
            sock.sendall(b"this is not json\n")
            reply = sock.makefile("rb").readline()
            assert b'"ok":false' in reply.replace(b" ", b"")
            assert b"JSON" in reply

    def test_server_config_validation(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ServerConfig(socket_path="/tmp/x.sock", port=1234)
        with pytest.raises(ValueError, match="serving backend"):
            ServerConfig(backend="ray")
        # the cluster backend is servable since the observability PR
        # (daemon health feeds the stats op and the exporter)
        assert ServerConfig(backend="cluster").backend == "cluster"
        with pytest.raises(ValueError, match="port"):
            ServerConfig(port=99999)
        with pytest.raises(ValueError, match="max_inflight"):
            ServerConfig(max_inflight=0)
        with pytest.raises(ValueError, match="metrics_port"):
            ServerConfig(metrics_port=70000)
        with pytest.raises(ValueError, match="history_retain_files"):
            ServerConfig(history_retain_files=0)
        with pytest.raises(ValueError, match="p95"):
            ServerConfig(slo_p95_seconds=-1.0)


@pytest.mark.serving
class TestTcpAndTelemetry:
    def test_tcp_front_end(self, oneshot):
        handle = start_in_thread(ServerConfig(port=18472))
        try:
            assert handle.address == {"host": "127.0.0.1", "port": 18472}
            with connect(handle.address) as c:
                _register(c)
                got = c.query("R", "S", eps=EPS)
                assert got["results"] == len(oneshot.r_ids)
        finally:
            handle.stop()

    def test_per_request_run_ids_and_report(self, server):
        with connect(server.address) as c:
            _register(c)
            a = c.query("R", "S", eps=EPS, trace=True, report=True)
            b = c.query(
                "R", "S", eps=EPS, trace=True, reuse_results=False
            )
            assert a["run_id"] and b["run_id"]
            assert a["run_id"] != b["run_id"]  # one run id per request
            assert a["spans"] > 0
            assert "stage" in a["report"] or "run " in a["report"]


# ----------------------------------------------------------------------
# hygiene: stale server state dirs and sockets
# ----------------------------------------------------------------------
class TestServingHygiene:
    def test_sweeps_stale_server_dir_and_socket(self, tmp_path):
        root = str(tmp_path)
        dead_pid = 2_000_000_000  # far beyond pid_max: provably dead
        stale_dir = tmp_path / f"{SERVE_PREFIX}abc123"
        stale_dir.mkdir()
        write_owner_marker(str(stale_dir), pid=dead_pid)
        stale_sock = tmp_path / f"{SERVE_PREFIX}{dead_pid}.sock"
        stale_sock.touch()

        live_dir = tmp_path / f"{SERVE_PREFIX}live"
        live_dir.mkdir()
        write_owner_marker(str(live_dir))  # owned by this (live) process
        live_sock = tmp_path / f"{SERVE_PREFIX}{os.getpid()}.sock"
        live_sock.touch()
        unmarked = tmp_path / f"{SERVE_PREFIX}unmarked"
        unmarked.mkdir()

        report = sweep_stale_resources(tmp_root=root, shm_dir=str(tmp_path))
        assert str(stale_dir) in report["dirs_removed"]
        assert str(stale_sock) in report["sockets_removed"]
        assert not stale_dir.exists() and not stale_sock.exists()
        assert live_dir.exists() and live_sock.exists()
        assert unmarked.exists()  # no owner marker: never touched

    def test_socket_owner_parsing(self):
        from repro.engine.hygiene import server_socket_owner

        assert server_socket_owner("repro-serve-1234.sock") == 1234
        assert server_socket_owner("repro-serve-1234-extra.sock") == 1234
        assert server_socket_owner("repro-serve-x.sock") is None
        assert server_socket_owner("other-1234.sock") is None
        assert server_socket_owner("repro-serve-1234") is None

    @pytest.mark.serving
    def test_server_start_and_stop_leave_no_state_behind(self):
        handle = start_in_thread(ServerConfig(backend="serial"))
        state_dir = handle.server._state_dir
        sock = handle.socket_path
        assert state_dir is not None and os.path.isdir(state_dir)
        assert sock is not None and os.path.exists(sock)
        handle.stop()
        assert not os.path.exists(sock)
        assert not os.path.isdir(state_dir)


# ----------------------------------------------------------------------
# `repro serve` owns its allocator policy
# ----------------------------------------------------------------------
def _served_faults_per_query(tmp_path, tag: str, policy: bool) -> float:
    """Steady-state minor faults a cold query costs a ``repro serve``
    child, read off ``/proc/<pid>/stat``; ``policy=False`` starts the same
    server with the start-up allocator call patched out."""
    import subprocess
    import sys

    from repro.serving.client import JoinClient

    code = "import sys, repro.cli as cli\n"
    if not policy:
        code += "cli._keep_freed_memory_in_heap = lambda: False\n"
    code += "sys.exit(cli.main(sys.argv[1:]))"
    sock = os.path.relpath(tmp_path / f"{tag}.sock")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("MALLOC_MMAP_THRESHOLD_", None)
    env.pop("MALLOC_TRIM_THRESHOLD_", None)
    proc = subprocess.Popen(
        # 1 MB caches: they evict from the first query on, so what a cold
        # query allocates is what it frees, not cache growth
        [sys.executable, "-c", code, "serve", "--socket", sock,
         "--backend", "serial", "--quiet", "--no-sweep",
         "--cache-budget-mb", "1", "--result-cache-mb", "1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )

    def minflt() -> int:
        with open(f"/proc/{proc.pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[7])

    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                client = JoinClient(socket_path=sock, timeout=60.0)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        with client:
            client.register("R", "R1", base_n=20_000)
            client.register("S", "S1", base_n=20_000)

            def cold(i):  # a new eps misses both caches
                got = client.query(
                    "R", "S", eps=0.004 + 1e-5 * i, kernel="grid_hash", max_pairs=0
                )
                assert not got["cached_result"] and got["results"] > 0

            for i in range(12):  # the heap reaches its working size
                cold(i)
            counts = [minflt()]
            for i in range(12, 22):
                cold(i)
                counts.append(minflt())
            # the median: one query in ten pays for a heap consolidation
            per_query = float(np.median(np.diff(counts)))
            client.shutdown()
        proc.wait(timeout=30)
        return per_query
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


@pytest.mark.serving
@pytest.mark.skipif(
    __import__("platform").libc_ver()[0] != "glibc",
    reason="the policy is glibc's mallopt; elsewhere it is a no-op",
)
def test_serve_keeps_freed_temporaries_in_the_heap(tmp_path):
    """Ten cold queries fault <= 10% of what they do on the same server
    without the start-up ``mallopt``: the join's 0.3-2 MB temporaries are
    reused from the heap instead of being mapped and zeroed per query."""
    without = _served_faults_per_query(tmp_path, "plain", policy=False)
    with_policy = _served_faults_per_query(tmp_path, "tuned", policy=True)
    assert with_policy <= 0.1 * without, (with_policy, without)


# ----------------------------------------------------------------------
# perfsmoke: the caches must actually pay for themselves
# ----------------------------------------------------------------------
@pytest.mark.perfsmoke
@pytest.mark.serving
class TestServingPerfSmoke:
    def test_warm_query_beats_cold_by_pinned_factor(self, server):
        with connect(server.address) as c:
            _register(c)
            t0 = time.perf_counter()
            cold = c.query("R", "S", eps=EPS, max_pairs=0)
            cold_elapsed = time.perf_counter() - t0
            assert not cold["cached_result"]

            best_warm = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                warm = c.query("R", "S", eps=EPS, max_pairs=0)
                best_warm = min(best_warm, time.perf_counter() - t0)
                assert warm["cached_result"]
        # a result-cache hit skips the whole pipeline; even on a loaded
        # 1-CPU CI box it must beat the cold build by 5x end to end
        assert best_warm < cold_elapsed / 5, (
            f"warm {best_warm * 1000:.1f}ms vs cold "
            f"{cold_elapsed * 1000:.1f}ms: the result cache is not paying"
        )
