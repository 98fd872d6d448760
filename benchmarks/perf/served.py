"""The served workload: a ``repro serve`` subprocess driven over its socket."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

from common import child_env, normalised_seconds, quiet_host_factor, timed_window
from workloads import Workload

#: pairs asked back on the first query, to check them against the oracle
#: (a response line is capped near 1 MiB, so not the whole result)
SAMPLE_PAIRS = 20_000
#: a quarter of the server's default artifact budget, so that the cache is
#: full (and evicting) a few seconds into a run: the server's peak RSS is
#: then the budget plus a constant, not a count of the queries that fitted
#: into the window
ARTIFACT_CACHE_MB = 64
_TICK = os.sysconf("SC_CLK_TCK")


class Server:
    """One ``python -m repro.cli serve`` child and a client connection to it."""

    def __init__(self, tmp: str, tag: str):
        # a relative socket path: AF_UNIX paths are capped near 108 bytes
        self.socket = os.path.relpath(os.path.join(tmp, f"{tag}.sock"))
        self.env = child_env(tmp)
        self.stderr_path = os.path.join(tmp, f"{tag}.err")
        self.proc = None
        self.client = None
        self.spawn_to_ping_s = 0.0
        self.register_s = 0.0

    def start(self, r_path: str, s_path: str) -> None:
        from repro.serving.client import JoinClient

        started = time.perf_counter()
        with open(self.stderr_path, "wb") as stderr:  # a file, not a pipe nobody drains
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket,
                 "--backend", "serial", "--workers", "4", "--max-inflight", "2",
                 "--max-queue", "64", "--cache-budget-mb", str(ARTIFACT_CACHE_MB), "--quiet"],
                env=self.env, stdout=subprocess.DEVNULL, stderr=stderr,
            )
        while True:
            try:
                self.client = JoinClient(socket_path=self.socket, timeout=120.0)
                self.client.ping()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    with open(self.stderr_path) as fh:
                        raise RuntimeError(f"server exited at start: {fh.read()[-2000:]}")
                if time.perf_counter() - started > 60:
                    raise TimeoutError("server did not answer ping within 60 s")
                time.sleep(0.005)
        self.spawn_to_ping_s = time.perf_counter() - started
        started = time.perf_counter()
        self.client.register("R", os.path.abspath(r_path))
        self.client.register("S", os.path.abspath(s_path))
        self.register_s = time.perf_counter() - started

    def connect(self):
        from repro.serving.client import JoinClient

        return JoinClient(socket_path=self.socket, timeout=120.0)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            hwm = next(line for line in fh if line.startswith("VmHWM"))
        return int(hwm.split()[1]) / 1024.0

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def stop(self) -> None:
        """Shut down with the ``shutdown`` op; kill if that does not end it."""
        if self.proc is None:
            return
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
                self.proc.wait(timeout=15)
        except Exception:
            pass
        finally:
            if self.client is not None:
                try:
                    self.client.close()
                except OSError:
                    pass
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc = None


def query_fields(w: Workload) -> dict:
    """Query fields fixed by the workload; the caller adds ``seed`` and reuse."""
    if w.kind == "auto":
        return {"tuning": "auto", "max_pairs": 0}
    return {"method": w.method, "kernel": w.kernel, "workers": w.workers, "max_pairs": 0}


class Session:
    """Issues checked queries against one server; collects client latencies."""

    def __init__(self, server: Server, w: Workload, quick: bool, seed: int, checker, log=None):
        self.eps = w.size(quick)[1]
        self.fields = query_fields(w)
        # sampling seeds of fresh (cold) queries: distinct per run seed and per query
        self._next_seed = (seed % 10_000) * 100_000
        self.checker = checker
        self.log = log
        self._lock = threading.Lock()

    def fresh_seed(self) -> int:
        with self._lock:
            self._next_seed += 1
            return self._next_seed

    def query(self, client, seed: int, phase: str, expect=None, **extra):
        """One query; returns (client latency, response) or (None, None) on failure.

        ``expect`` asserts cache temperature from the response:
        ``cold`` / ``warm_artifact`` / ``hit``.
        """
        fields = {**self.fields, **extra, "seed": seed}
        started = time.perf_counter()
        try:
            if self.log is not None:
                with self.log.span(f"serving.{phase}", op=seed):
                    resp = client.query("R", "S", self.eps, **fields)
            else:
                resp = client.query("R", "S", self.eps, **fields)
        except Exception as exc:  # refused, timed out or errored: a failed op
            self.checker.error(f"{phase} query: {type(exc).__name__}: {exc}")
            return None, None
        latency = time.perf_counter() - started
        temperature = (
            "hit" if resp["cached_result"] else "warm_artifact" if resp["warm_artifacts"] else "cold"
        )
        if expect is not None and temperature != expect:
            self.checker.error(f"{phase} query: expected {expect}, server reported {temperature}")
            return None, None
        if fields["max_pairs"]:
            ok = self.checker.sample(resp["results"], resp["pairs"], f"{phase} query")
        else:
            ok = self.checker.count_only(resp["results"], f"{phase} query")
        return (latency, resp) if ok else (None, None)

    def cold(self, client, phase: str = "cold", **extra):
        return self.query(client, self.fresh_seed(), phase, expect="cold", **extra)


def setup_once(tmp: str, tag: str, files, w, quick, seed, checker, sample: bool = False, log=None):
    """Spawn, register and warm up one server.

    Returns (server, session, set-up seconds).  With ``sample`` the warm-up
    query asks some pairs back and checks them against the oracle set.
    """
    started = time.perf_counter()
    server = Server(tmp, tag)
    try:
        server.start(*files)
        session = Session(server, w, quick, seed, checker, log)
        session.cold(server.client, "warm-up", **({"max_pairs": SAMPLE_PAIRS} if sample else {}))
    except BaseException:
        server.stop()
        raise
    return server, session, time.perf_counter() - started


SETUPS = 5


def window(w: Workload, seed: int, quick: bool, seconds: float, checker, tmp: str, files) -> dict:
    """Set the server up ``SETUPS`` times (the fastest counts), then time cold queries."""
    setups, quiet_setups, spawns, registers = [], [], [], []
    server = None
    try:
        for i in range(1 if quick else SETUPS):
            if server is not None:
                server.stop()
            (server, session, took), factor = quiet_host_factor(
                lambda: setup_once(tmp, f"srv{i}", files, w, quick, seed, checker, sample=(i == 0))
            )
            setups.append(took)
            quiet_setups.append(took * factor)
            spawns.append(server.spawn_to_ping_s)
            registers.append(server.register_s)
        cpu0 = server.cpu_s()
        walls, refs = timed_window(lambda: session.cold(server.client)[0], seconds, checker)
        return {
            "samples": {"op_s": walls, "ref_s": refs},
            "join_norm_s": normalised_seconds(walls, refs),
            "setup_s": min(quiet_setups),
            "setup_parts": {"setup_s": setups, "spawn_to_ping_s": spawns, "register_s": registers},
            "peak_rss_mb": server.peak_rss_mb(),
            "wall_over_cpu": sum(walls) / max(server.cpu_s() - cpu0, 1e-9),
        }
    finally:
        if server is not None:
            server.stop()
