"""Join-as-a-service: the long-running asyncio join server.

One :class:`JoinServer` process turns the reproduction from a one-shot
script into a resident system:

* the :class:`~repro.serving.registry.DatasetRegistry` keeps point sets
  loaded across queries;
* the :class:`~repro.serving.cache.ArtifactCache` keeps built grids,
  samples/statistics, agreement graphs (inside the adaptive assigners),
  LPT placements and STR R-trees, keyed by dataset fingerprint and the
  configuration fields that feed each build -- injected into the staged
  pipeline through ``JoinConfig.artifact_cache``;
* a cross-query **result cache** keeps finished join results under their
  query key -- the same :class:`~repro.engine.lru.LRUCache` the artifact
  and plan caches are, with a byte budget of its own;
* the :class:`~repro.serving.admission.AdmissionController` bounds
  in-flight work and coalesces identical concurrent queries;
* every request runs under its own run id with the PR 5 telemetry
  subsystem -- span traces and a full
  :class:`~repro.engine.telemetry.RunReport` on demand -- and the
  server aggregates latency/hit-rate metrics in a
  :class:`~repro.engine.telemetry.MetricsRegistry`;
* on the ``threads``/``processes`` backends the executor's worker pools
  are made *shared*: one long-lived pool serves every query instead of
  a fresh pool per run
  (:func:`repro.engine.executor.enable_shared_pools`).

The server listens on a unix-domain socket (default) or a localhost TCP
port, speaking the newline-delimited JSON protocol of
:mod:`repro.serving.protocol`.  Its state directory and default socket
are pid-stamped so the startup hygiene sweep
(:func:`repro.engine.hygiene.sweep_stale_resources`) can reclaim what a
SIGKILLed server leaves behind.

Results are **bit-identical** to the equivalent one-shot CLI run on
every path -- cold build, warm artifact-cache build, and result-cache
hit -- pinned by ``tests/test_serving.py``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro._checks import check_count, check_positive
from repro.engine import executor as executor_mod
from repro.engine.hygiene import (
    SERVE_PREFIX,
    sweep_stale_resources,
    write_owner_marker,
)
from repro.engine.lru import LRUCache
from repro.engine.telemetry import MetricsRegistry, Telemetry, get_logger
from repro.obs import (
    Family,
    PrometheusEndpoint,
    RunHistory,
    SLOWatchdog,
    check_families,
    render_metrics,
)
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.pipeline import ExecutionSettings
from repro.serving.admission import AdmissionController, QueryRejected
from repro.serving.cache import ArtifactCache, estimate_nbytes
from repro.serving.fingerprint import grid_partition_key, query_key
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode,
    error_response,
)
from repro.planner import (
    JoinSpec,
    PlanCache,
    backend_clock,
    clock_errors_from_metrics,
    plan_join,
)
from repro.planner.accuracy import PHASE_STAGES
from repro.serving.registry import DatasetRegistry

__all__ = ["JoinServer", "ServerConfig", "ServerHandle", "start_in_thread"]

#: Bucket bounds for planner clock-error histograms: these hold error
#: *ratios* (0.1 == 10% off), not seconds, so the log-spaced seconds
#: defaults would waste most buckets.
ERROR_RATIO_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

#: The ``/metrics`` families: one row each, its path into
#: :meth:`JoinServer.snapshot` (the path rules are ``repro.obs.exporter``'s);
#: the SLO and history counters report 0 while their feature is off.
METRIC_FAMILIES = check_families(Family(*row) for row in (
    ("repro_server_uptime_seconds", "gauge",
     "Seconds since the join server process started.", "uptime_seconds"),
    ("repro_server_info", "gauge",
     "Constant 1; labels carry server identity (pid, backend).",
     {"pid": "pid", "backend": "backend"}),
    ("repro_queries_total", "counter",
     "Join queries accepted by the query op.", "queries_total"),
    ("repro_queries_failed_total", "counter",
     "Join queries that ended in an error response.", "queries_failed"),
    ("repro_errors_total", "counter",
     "Requests of any op that returned an error response.", "serving.errors"),
    ("repro_query_latency_seconds", "histogram",
     "End-to-end query latency, log-spaced buckets (cache hits included).",
     "latency"),
    ("repro_cache_hits_total", "counter",
     "Cache hits by tier (artifact/result/plan).", "{cache}_cache.hits"),
    ("repro_cache_misses_total", "counter",
     "Cache misses by tier (artifact/result/plan).", "{cache}_cache.misses"),
    ("repro_cache_evictions_total", "counter",
     "Cache evictions by tier (artifact/result/plan).",
     "{cache}_cache.evictions"),
    ("repro_cache_bytes", "gauge",
     "Resident bytes by cache tier (artifact/result).", "{cache}_cache.bytes"),
    ("repro_admission_inflight", "gauge",
     "Queries currently executing under admission control.",
     "admission.running"),
    ("repro_admission_queue_depth", "gauge",
     "Queries waiting in the admission queue.", "admission.waiting"),
    ("repro_admission_admitted_total", "counter",
     "Queries admitted for execution.", "admission.admitted"),
    ("repro_admission_coalesced_total", "counter",
     "Duplicate concurrent queries coalesced onto one execution.",
     "admission.coalesced"),
    ("repro_admission_rejected_total", "counter",
     "Queries rejected because the admission queue was full.",
     "admission.rejected"),
    ("repro_shared_pool_acquires_total", "counter",
     "Worker-pool acquisitions on the shared-pool path.",
     "shared_pools.acquires"),
    ("repro_shared_pool_hits_total", "counter",
     "Worker-pool acquisitions served by a resident pool.",
     "shared_pools.hits"),
    ("repro_shared_pool_resident", "gauge",
     "Resident shared worker pools currently alive.", "shared_pools.resident"),
    ("repro_planner_clock_error_ratio", "histogram",
     "Absolute relative error of chosen plans on the clock they were "
     "priced on, by phase; 0.1 means 10% off.", "planner_errors.{phase}"),
    ("repro_slo_degraded", "gauge",
     "1 when the SLO watchdog's rolling window breaches a threshold, "
     "else 0.", "degraded"),
    ("repro_slo_alerts_total", "counter",
     "Healthy-to-degraded SLO transitions since startup.", "slo.alerts", 0),
    ("repro_history_appended_total", "counter",
     "RunReports appended to the run-history store.", "history.appended", 0),
    ("repro_history_bytes", "gauge",
     "Size of the active run-history JSONL file.", "history.active_bytes",
     0),
    ("repro_history_rotations_total", "counter",
     "Run-history file rotations since startup.", "history.rotations", 0),
))

#: Query-request fields that belong to the one-shot CLI surface only.
#: They are rejected by name so a client porting ``repro join`` flags
#: gets a targeted error instead of a generic "unknown field".
ONE_SHOT_ONLY_FIELDS = (
    "faults",
    "fault_seed",
    "spill",
    "spill_dir",
    "checkpoint_cells",
    "backend",
    "execution_backend",
)

#: Plan dimensions a query may pin when asking for ``tuning: auto``;
#: any of them present in the request stays fixed while the planner
#: searches the rest.
PLANNABLE_FIELDS = ("method", "kernel", "workers", "resolution_factor")

#: Query fields that set a ``JoinConfig`` field, by wire name.  The
#: config declares each one's default and checks its value; the server
#: only converts the JSON value to the declared type.
JOIN_FIELDS = ("eps", "method", "kernel", "workers", "seed", "resolution_factor")
#: The wire names that differ from their ``JoinConfig`` field's name.
WIRE_ALIASES = {"kernel": "local_kernel", "workers": "num_workers"}
_WIRE_NAMES = {name: wire for wire, name in WIRE_ALIASES.items()}

#: Fields a ``query`` request may carry (beyond ``op``): the join fields
#: and the ones the server itself reads.
QUERY_FIELDS = frozenset(JOIN_FIELDS) | {
    "r", "s", "tuning", "reuse_results", "max_pairs", "trace", "report",
}


@dataclass(frozen=True)
class ServerConfig:
    """How one join server listens, caches, and executes."""

    #: Unix-domain socket path (``None``: a pid-stamped socket inside the
    #: state directory).  Mutually exclusive with ``port``.
    socket_path: str | None = None
    #: TCP port (``None``: unix socket; ``0``: an ephemeral port, read
    #: back from ``JoinServer.address``) on 127.0.0.1: the server never
    #: binds beyond localhost, serving the open internet is a reverse
    #: proxy's job.
    port: int | None = None
    #: Byte budget of the artifact cache (grids, graphs, placements).
    cache_budget_bytes: int = 256_000_000
    #: Byte budget of the cross-query result cache: an ``LRUCache`` of
    #: finished queries' pairs and metrics (metrics alone for a count).
    result_cache_bytes: int = 64_000_000
    #: Admission control: concurrent executing queries / waiting queries.
    max_inflight: int = 2
    max_queue: int = 16
    #: Execution backend queries run on: any of the executor's
    #: ``BACKENDS``.  Fault injection belongs to one-shot runs
    #: (``faults`` stays a rejected one-shot field).
    backend: str = ExecutionSettings.execution_backend
    #: Default simulated workers for queries that do not set ``workers``.
    default_workers: int = JoinConfig.num_workers
    #: RunHistory JSONL path (``None``: history off).  Every executed
    #: query appends its RunReport; the file replays through
    #: ``repro.planner.accuracy.replay_reports``.
    history_path: str | None = None
    #: Prometheus scrape endpoint port (``None``: exporter HTTP off;
    #: ``0``: bind an ephemeral port).  Loopback only.
    metrics_port: int | None = None
    #: SLO watchdog thresholds (both ``None``: watchdog off): the rolling
    #: window's p95 latency in seconds and its share of failed queries.
    slo_p95_seconds: float | None = None
    slo_error_rate: float | None = None

    def __post_init__(self):
        if self.socket_path is not None and self.port is not None:
            raise ValueError("socket_path and port are mutually exclusive")
        if self.port is not None:  # 0: an ephemeral port
            check_count("port", self.port, 0, 65535)
        if self.backend not in executor_mod.BACKENDS:
            raise ValueError(
                f"serving backend must be one of {executor_mod.BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.metrics_port is not None:  # 0: an ephemeral port
            check_count("metrics_port", self.metrics_port, 0, 65535)
        for name in (
            "cache_budget_bytes",
            "result_cache_bytes",
            "max_inflight",
            "default_workers",
        ):
            check_count(name, getattr(self, name), 1)
        check_count("max_queue", self.max_queue, 0)
        if self.slo_p95_seconds is not None:
            check_positive("slo_p95_seconds", self.slo_p95_seconds)
        if self.slo_error_rate is not None and not 0 < self.slo_error_rate <= 1:
            raise ValueError(
                f"slo_error_rate must be in (0, 1] when set, got {self.slo_error_rate}"
            )


@dataclass(frozen=True)
class QuerySpec:
    """One validated distance-join query: what the server reads of the
    request, plus the one :class:`JoinConfig` its join fields build."""

    r: str
    s: str
    #: The request's join fields on top of the server's defaults
    #: (``workers``: ``ServerConfig.default_workers``; backend and
    #: executor workers: the server's), checked by ``JoinConfig`` itself.
    config: JoinConfig
    reuse_results: bool = True
    max_pairs: int | None = None
    trace: bool = False
    report: bool = False
    #: ``"auto"``: the server's cost-based planner chooses every plan
    #: dimension the request left unpinned (see docs/PLANNER.md).
    tuning: str = "static"
    #: Plan dimensions the request pinned explicitly (``tuning: auto``).
    pinned: tuple = ()

    @classmethod
    def parse(cls, request: dict, config: ServerConfig) -> "QuerySpec":
        tuning = str(request.get("tuning", "static"))
        if tuning not in ("static", "auto"):
            raise ProtocolError(
                f"tuning must be 'static' or 'auto', got {tuning!r}"
            )
        for name in ONE_SHOT_ONLY_FIELDS:
            if name in request:
                if tuning == "auto" and name in ("backend", "execution_backend"):
                    raise ProtocolError(
                        f"{name!r} is not a plannable choice: the server "
                        f"pins the backend for every query "
                        f"(backend={config.backend}); `tuning: auto` searches "
                        f"method, kernel, workers and resolution_factor only"
                    )
                raise ProtocolError(
                    f"{name!r} is a one-shot flag: fault injection, spill "
                    f"tiers and backend choice belong to `repro join`; the "
                    f"server runs every query on its configured "
                    f"{config.backend!r} backend"
                )
        unknown = set(request) - QUERY_FIELDS - {"op"}
        if unknown:
            raise ProtocolError(
                f"unknown query field(s): {', '.join(sorted(unknown))}"
            )
        for name in ("r", "s", "eps"):
            if name not in request:
                raise ProtocolError(f"query requires the {name!r} field")
        eps = float(request["eps"])
        if not (math.isfinite(eps) and eps > 0):
            raise ProtocolError(f"eps must be positive and finite, got {eps}")
        settings = {"num_workers": config.default_workers}
        for wire in JOIN_FIELDS:
            if wire in request:
                name = WIRE_ALIASES.get(wire, wire)
                settings[name] = _as_declared(name, request[wire])
        try:
            join = JoinConfig(execution_backend=config.backend, **settings)
        except ValueError as exc:
            # the config names its field; the client knows the wire name
            name, _, rest = str(exc).partition(" ")
            raise ProtocolError(f"{_WIRE_NAMES.get(name, name)} {rest}") from None
        max_pairs = request.get("max_pairs")
        max_pairs = int(max_pairs) if max_pairs is not None else None
        if max_pairs is not None and max_pairs < 0:
            raise ProtocolError("max_pairs must be >= 0")
        if max_pairs == 0 and join.duplicate_free:
            # no pair is sent back: the join only counts (the distinct
            # step of a duplicate_free=False join needs the ids)
            join = replace(join, collect_pairs=False)
        return cls(
            r=str(request["r"]),
            s=str(request["s"]),
            config=join,
            reuse_results=bool(request.get("reuse_results", True)),
            max_pairs=max_pairs,
            trace=bool(request.get("trace", False)),
            report=bool(request.get("report", False)),
            tuning=tuning,
            pinned=tuple(sorted(d for d in PLANNABLE_FIELDS if d in request)),
        )


#: The Python type each ``JoinConfig`` field declares, by field name.
_DECLARED = {f.name: f.type for f in fields(JoinConfig)}
_WIRE_TYPES = {"float": float, "int": int, "str": str, "bool": bool}


def _as_declared(name: str, value):
    """A JSON request value as the type ``JoinConfig.<name>`` declares."""
    declared = _DECLARED[name]
    if value is None and declared.endswith(" | None"):
        return None
    return _WIRE_TYPES[declared.removesuffix(" | None")](value)


def _count_field(request: dict, name: str) -> int | None:
    """A non-negative integer request field (``None`` when absent)."""
    value = request.get(name)
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int) or value < 0
    ):
        raise ProtocolError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    return value


def _metrics_payload(m) -> dict:
    """The JSON-safe slice of a :class:`JoinMetrics` a client needs."""
    return {
        "method": m.method,
        "eps": m.eps,
        "results": int(m.results),
        "candidate_pairs": int(m.candidate_pairs),
        "grid_cells": int(m.grid_cells),
        "replicated_r": int(m.replicated_r),
        "replicated_s": int(m.replicated_s),
        "shuffle_records": int(m.shuffle_records),
        "shuffle_bytes": int(m.shuffle_bytes),
        "remote_bytes": int(m.remote_bytes),
        "construction_time_model": m.construction_time_model,
        "join_time_model": m.join_time_model,
        "join_wall_makespan": m.join_wall_makespan,
        "execution_backend": m.execution_backend,
        "stage_times": {k: v for k, v in m.stage_times.items()},
    }


class JoinServer:
    """The resident join service (see module docstring)."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.datasets = DatasetRegistry()
        self.artifacts = ArtifactCache(self.config.cache_budget_bytes)
        self.admission = AdmissionController(
            self.config.max_inflight, self.config.max_queue
        )
        self.registry = MetricsRegistry()  # server-lifetime aggregates
        #: ``tuning: auto`` verdicts, keyed by dataset fingerprints + eps
        #: bucket + client pins
        self.plans = PlanCache()
        self._log = get_logger("repro.serving.server")
        #: finished ``(r_ids, s_ids, metrics)`` triples across queries,
        #: keyed by the query (the ids ``None`` for a count-only query); a
        #: result over the whole budget is not kept
        self._results = LRUCache(limit_bytes=self.config.result_cache_bytes)
        self._pool = None  # query thread pool, created on start
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = None  # asyncio.Event, created on start
        self._state_dir: str | None = None
        self._socket_path: str | None = None
        self._started_at = time.time()
        self._closed = False
        self._shared_pools_enabled = False
        # --- continuous observability (repro.obs), all off by default --
        self.history = (
            RunHistory(self.config.history_path)
            if self.config.history_path
            else None
        )
        slo = SLOWatchdog(self.config.slo_p95_seconds, self.config.slo_error_rate)
        self.slo = slo if slo.enabled else None
        self._metrics_endpoint: PrometheusEndpoint | None = None

    # ------------------------------------------------------------------
    # observability: every reported number is read here, once
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Server state as one plain dict, read once.

        The ``stats`` op returns it, ``/metrics`` renders it through
        :data:`METRIC_FAMILIES`, and ``repro query --stats`` renders the
        ``stats`` op.  Sections the server runs without are reported as
        off: ``slo.enabled`` false, ``history`` and ``metrics_endpoint``
        ``None``.
        """
        reg = self.registry
        phases = (*PHASE_STAGES[backend_clock(self.config.backend)], "total")
        slo = (
            self.slo.status()
            if self.slo is not None
            else {"enabled": False, "degraded": False}
        )
        return {
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self._started_at,
            "address": self.address,
            "backend": self.config.backend,
            "queries_total": reg.value("serve.queries"),
            "queries_failed": reg.value("serve.queries_failed"),
            "degraded": slo["degraded"],
            "datasets": self.datasets.describe(),
            "latency": reg.histogram("serve.query_seconds").snapshot(),
            "artifact_cache": self.artifacts.stats(),
            "result_cache": self._results.stats(),
            "admission": self.admission.stats(),
            "shared_pools": executor_mod.shared_pool_stats(),
            "plan_cache": self.plans.stats(),
            # |relative clock error| of chosen plans, one histogram per
            # phase of the clock this server's backend is planned on
            "planner_errors": {
                phase: reg.histogram(
                    f"serve.plan_abs_rel_error.{phase}", ERROR_RATIO_BUCKETS
                ).snapshot()
                for phase in phases
            },
            "slo": slo,
            "history": (
                self.history.stats() if self.history is not None else None
            ),
            "metrics_endpoint": (
                self._metrics_endpoint.address
                if self._metrics_endpoint is not None
                else None
            ),
            "serving": {
                key: reg.value(f"serve.{key}")
                for key in (
                    "plans", "plan_cache_hits", "result_cache_hits",
                    "warm_builds", "cold_builds",
                    "registrations", "errors",
                )
            },
        }

    def metrics_text(self) -> str:
        """One ``/metrics`` page: one snapshot through the family table."""
        return render_metrics(self.snapshot(), METRIC_FAMILIES)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> dict:
        """Where the server listens (``{"socket": ...}`` or host/port)."""
        if self.config.port is not None:
            port = self.config.port
            if self._server is not None:  # bound: ``port=0`` took a free one
                port = self._server.sockets[0].getsockname()[1]
            return {"host": "127.0.0.1", "port": port}
        return {"socket": self._socket_path}

    async def start(self) -> None:
        """Sweep, claim the state dir, bind the socket, start serving."""
        try:
            swept = sweep_stale_resources()
            removed = len(swept["dirs_removed"]) + len(swept["sockets_removed"])
            if removed:
                self._log.info(
                    "startup sweep reclaimed %d stale server "
                    "resource(s)", removed,
                )
        except Exception:  # pragma: no cover - hygiene never fatal
            pass
        # a fresh pid-tagged directory per start, removed at stop
        self._state_dir = tempfile.mkdtemp(prefix=SERVE_PREFIX)
        write_owner_marker(self._state_dir)

        from concurrent.futures import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-serve",
        )
        if self.config.backend in ("threads", "processes"):
            executor_mod.enable_shared_pools()
            self._shared_pools_enabled = True

        self._shutdown = asyncio.Event()
        if self.config.port is not None:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host="127.0.0.1",
                port=self.config.port,
                limit=MAX_LINE_BYTES,
            )
        else:
            self._socket_path = self.config.socket_path or os.path.join(
                self._state_dir, f"{SERVE_PREFIX}{os.getpid()}.sock"
            )
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self._socket_path,
                limit=MAX_LINE_BYTES,
            )
        if self.config.metrics_port is not None:
            self._metrics_endpoint = PrometheusEndpoint(
                self.metrics_text,
                host="127.0.0.1",
                port=self.config.metrics_port,
            )
            await self._metrics_endpoint.start()
            self._log.info(
                "metrics endpoint at %s", self._metrics_endpoint.address
            )
        self._write_state_file()
        self._log.info("join server listening on %s", self.address)

    def _write_state_file(self) -> None:
        try:
            with open(
                os.path.join(self._state_dir, "server.json"), "w"
            ) as fh:
                json.dump({"pid": os.getpid(), **self.address}, fh)
        except OSError:  # pragma: no cover - informational only
            pass

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`)."""
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        """Trigger a clean shutdown from a signal handler (SIGTERM).

        Must run on the event-loop thread (``loop.add_signal_handler``
        callbacks do); :meth:`serve_until_shutdown` then drains the pool
        and closes trace/history files so no partial JSONL lines remain.
        """
        if self._shutdown is not None:
            self._shutdown.set()

    def run_forever(self) -> None:
        """Start and serve on a fresh event loop (the CLI entry point)."""

        async def _main():
            await self.start()
            try:
                await self.serve_until_shutdown()
            except asyncio.CancelledError:  # pragma: no cover - signal
                await self.stop()

        asyncio.run(_main())

    async def stop(self) -> None:
        """Close the socket and release every held resource (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.stop()
            self._metrics_endpoint = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.history is not None:
            # after the pool drain: every in-flight query has appended
            # its report, so the file closes with no partial line
            self.history.close()
        if self._shared_pools_enabled:
            executor_mod.disable_shared_pools()
            self._shared_pools_enabled = False
        self._results.clear()
        self.artifacts.clear()
        if self._socket_path is not None and os.path.exists(self._socket_path):
            try:
                os.unlink(self._socket_path)
            except OSError:  # pragma: no cover - defensive
                pass
        if self._state_dir is not None:
            shutil.rmtree(self._state_dir, ignore_errors=True)
        self._state_dir = None
        self._log.info("join server stopped")

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError, asyncio.LimitOverrunError):
                    writer.write(
                        encode(
                            error_response(
                                ProtocolError("request line too long")
                            )
                        )
                    )
                    break
                if not line.strip():
                    break  # client closed (or sent a blank line)
                response = await self._dispatch(line)
                close_after = bool(response.pop("_close", False))
                writer.write(encode(response))
                await writer.drain()
                if close_after:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, line: bytes) -> dict:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            return error_response(exc)
        op = request["op"]
        handler = getattr(self, f"_op_{op}")
        try:
            return await handler(request)
        except (ProtocolError, QueryRejected, KeyError, ValueError) as exc:
            self._count_failure(op)
            return error_response(exc)
        except Exception as exc:  # pragma: no cover - defensive catch-all
            self._log.warning("op %r failed: %s", op, exc)
            self._count_failure(op)
            return error_response(exc)

    def _count_failure(self, op: str) -> None:
        self.registry.counter("serve.errors").inc()
        if op == "query":
            self.registry.counter("serve.queries_failed").inc()
            if self.slo is not None:
                self.slo.observe(0.0, failed=True)

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def _op_ping(self, request: dict) -> dict:
        return {
            "ok": True,
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self._started_at,
            "backend": self.config.backend,
        }

    async def _op_register(self, request: dict) -> dict:
        name = request.get("name") or request.get("spec")
        spec = request.get("spec") or name
        if not name:
            raise ProtocolError("register requires 'name' (or 'spec')")
        base_n = _count_field(request, "base_n")
        payload = _count_field(request, "payload") or 0
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(
            self._pool,
            lambda: self.datasets.register_spec(
                str(name),
                str(spec),
                base_n=base_n,
                payload_bytes=payload,
                replace=bool(request.get("replace", False)),
            ),
        )
        self.registry.counter("serve.registrations").inc()
        return {"ok": True, **entry.describe()}

    async def _op_query(self, request: dict) -> dict:
        spec = QuerySpec.parse(request, self.config)
        r = self.datasets.get(spec.r)
        s = self.datasets.get(spec.s)
        self.registry.counter("serve.queries").inc()
        loop = asyncio.get_running_loop()
        planned = None
        if spec.tuning == "auto":
            # resolve the plan before keying: caching and coalescing see
            # the concrete chosen choices, so an auto query and the
            # equivalent static query share artifacts and results
            spec, planned = await loop.run_in_executor(
                self._pool, lambda: self._plan_query(spec, r, s)
            )
        qkey = query_key(spec.config, r.fingerprint, s.fingerprint)
        akey = grid_partition_key(spec.config, r.fingerprint, s.fingerprint)
        coalesce_key = (
            qkey,
            spec.reuse_results,
            spec.max_pairs,
            spec.trace,
            spec.report,
        )
        payload = await self.admission.run(
            coalesce_key,
            lambda: loop.run_in_executor(
                self._pool,
                lambda: self._execute_query(
                    spec, r, s, qkey, akey, planned=planned
                ),
            ),
        )
        return payload

    def _plan_query(self, spec, r, s):
        """Run the cost-based planner for an ``auto`` query (pool thread).

        Chosen plans are cached by dataset fingerprints + eps bucket +
        the client's pins; a hit replays the cached choice without
        re-sampling.  Returns the spec with the chosen choices replaced
        onto its config, plus a payload-ready planner summary.
        """
        cfg = spec.config
        pins = {dim: getattr(cfg, WIRE_ALIASES.get(dim, dim)) for dim in spec.pinned}
        key = PlanCache.key(
            r.fingerprint,
            s.fingerprint,
            cfg.eps,
            pins,
            backend=self.config.backend,
            sample_rate=cfg.sample_rate,
            seed=cfg.seed,
        )
        cached = self.plans.get(key)
        cache_hit = cached is not None
        if cached is None:
            jspec = JoinSpec.from_pointsets(
                r.points,
                s.points,
                cfg.eps,
                sample_rate=cfg.sample_rate,
                seed=cfg.seed,
                r_fingerprint=r.fingerprint,
                s_fingerprint=s.fingerprint,
            )
            cached = plan_join(
                r.points,
                s.points,
                cfg.eps,
                pins=pins,
                base=cfg,
                spec=jspec,
            )
            self.plans.put(key, cached)
            self.registry.counter("serve.plans").inc()
        else:
            self.registry.counter("serve.plan_cache_hits").inc()
        chosen = cached.chosen
        # a cached plan may come from a query with other unplanned fields
        # (partitions, placement...): only the chosen dimensions carry over
        cfg = replace(
            cfg,
            method=chosen.method,
            local_kernel=chosen.kernel,
            num_workers=chosen.workers,
            resolution_factor=chosen.resolution_factor,
        )
        return replace(spec, config=cfg), {"planned": cached, "cache_hit": cache_hit}

    async def _op_stats(self, request: dict) -> dict:
        return {"ok": True, **self.snapshot()}

    async def _op_shutdown(self, request: dict) -> dict:
        self._shutdown.set()
        return {"ok": True, "stopping": True, "_close": True}

    # ------------------------------------------------------------------
    # query execution (runs on the thread pool)
    # ------------------------------------------------------------------
    def _planner_payload(self, planned: dict) -> dict:
        """JSON-safe planner summary attached to an ``auto`` response."""
        pj = planned["planned"]
        return {
            "cache_hit": planned["cache_hit"],
            "chosen": pj.chosen.row(),
            "candidates": len(pj.candidates),
            "pins": dict(pj.pins),
            "eps_bucket": PlanCache.key("", "", pj.spec.eps)[2],
        }

    def _execute_query(self, spec, r, s, qkey, akey, planned=None) -> dict:
        started = time.perf_counter()
        if spec.reuse_results:
            # a count query is answered by a cached pairs entry too
            keys = [qkey]
            if not spec.config.collect_pairs:
                collecting = replace(spec.config, collect_pairs=True)
                keys.append(query_key(collecting, r.fingerprint, s.fingerprint))
            cached = self._results.get(
                next((key for key in keys if self._results.contains(key)), qkey)
            )
            if cached is not None:
                self.registry.counter("serve.result_cache_hits").inc()
                payload = self._result_payload(spec, *cached)
                payload.update(
                    cached_result=True,
                    warm_artifacts=self.artifacts.contains(akey),
                    run_id=None,
                )
                if planned is not None:
                    payload["planner"] = self._planner_payload(planned)
                return self._finish(payload, started)

        warm = self.artifacts.contains(akey)
        self.registry.counter(
            "serve.warm_builds" if warm else "serve.cold_builds"
        ).inc()
        # history needs spans for the RunReport's stage rows, so an
        # enabled history store implies tracing (results stay identical:
        # telemetry never touches the join's data path)
        telemetry = Telemetry.create(
            enabled=spec.trace or self.history is not None
        )
        run_cfg = replace(
            spec.config,
            telemetry=telemetry,
            artifact_cache=self.artifacts,
            artifact_key=akey,
            history=self.history,
        )
        planner_meta = None
        if planned is not None:
            # publish the chosen plan + predicted clocks *before* the
            # run: the pipeline appends the RunReport to the history
            # store at run end, and replay_reports needs the prediction
            # inside that stored report to recompute clock errors
            planner_meta = planned["planned"].run_meta()
            planner_meta["plan_cache_hit"] = planned["cache_hit"]
            telemetry.registry.set_meta("planner", planner_meta)
        result = distance_join(r.points, s.points, run_cfg)
        metrics_payload = _metrics_payload(result.metrics)
        # a count-only run's columns are empty: its count is the metrics'
        kept = result if spec.config.collect_pairs else None
        self._result_cache_put(qkey, kept, metrics_payload)

        ids = (None, None) if kept is None else (kept.r_ids, kept.s_ids)
        payload = self._result_payload(spec, *ids, metrics_payload)
        payload.update(
            cached_result=False,
            warm_artifacts=warm,
            run_id=telemetry.run_id,
        )
        if planned is not None:
            planner_payload = self._planner_payload(planned)
            chosen = planned["planned"].chosen
            errors = clock_errors_from_metrics(
                chosen.prediction, result.metrics, chosen.clock
            )
            planner_payload["errors"] = {
                e.phase: e.to_payload() for e in errors
            }
            for err in errors:
                if err.measured > 0:
                    self.registry.histogram(
                        f"serve.plan_abs_rel_error.{err.phase}",
                        ERROR_RATIO_BUCKETS,
                    ).observe(abs(err.relative_error))
            payload["planner"] = planner_payload
            planner_meta["errors"] = planner_payload["errors"]
        if spec.trace:
            payload["spans"] = len(telemetry.tracer)
        if spec.report:
            payload["report"] = telemetry.report().render()
        return self._finish(payload, started)

    def _finish(self, payload: dict, started: float) -> dict:
        latency = time.perf_counter() - started
        self.registry.histogram("serve.query_seconds").observe(latency)
        if self.slo is not None:
            self.slo.observe(latency)
        payload["latency_seconds"] = latency
        payload["artifact_cache"] = self.artifacts.stats()
        return payload

    def _result_payload(self, spec, r_ids, s_ids, metrics_payload) -> dict:
        """The response body: the count comes from the metrics, so a
        count-only result (ids ``None``) answers as a collected one does."""
        results, limit = metrics_payload["results"], spec.max_pairs
        pairs = []
        if r_ids is not None:
            pairs = np.column_stack((r_ids[:limit], s_ids[:limit])).tolist()
        return {
            "ok": True,
            "results": results,
            "pairs": pairs,
            "pairs_truncated": limit is not None and results > limit,
            "metrics": metrics_payload,
        }

    # ------------------------------------------------------------------
    # the cross-query result cache
    # ------------------------------------------------------------------
    def _result_cache_put(self, qkey, result, metrics_payload) -> None:
        """Cache a finished query; ``result`` ``None``: the metrics alone."""
        # the cache owns its bytes: the job's columns are views of pool
        # slabs sized for every candidate, and a cached view would pin its
        # slab while the entry lives; an exact-size copy is what the budget
        # counts, and the slabs go back for the next query to lease
        r_ids = s_ids = None
        nbytes = estimate_nbytes(metrics_payload)
        if result is not None:
            r_ids, s_ids = result.r_ids.copy(), result.s_ids.copy()
            nbytes += r_ids.nbytes + s_ids.nbytes
        self._results.put(qkey, (r_ids, s_ids, metrics_payload), nbytes)


# ----------------------------------------------------------------------
# embedding helpers (tests, benchmarks, notebooks)
# ----------------------------------------------------------------------
@dataclass
class ServerHandle:
    """A server running on a background thread, plus its address."""

    server: JoinServer
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread
    _stopped: bool = field(default=False, repr=False)

    @property
    def address(self) -> dict:
        return self.server.address

    @property
    def socket_path(self) -> str | None:
        return self.server.address.get("socket")

    def stop(self, timeout: float = 10.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(
    config: ServerConfig | None = None, timeout: float = 10.0
) -> ServerHandle:
    """Start a :class:`JoinServer` on a dedicated event-loop thread.

    The embedding entry point tests and benchmarks use: returns once the
    socket is bound.  Callers own the handle and must :meth:`~ServerHandle.stop`
    it (it is also a context manager).
    """
    server = JoinServer(config)
    started = threading.Event()
    failure: list[BaseException] = []
    loop = asyncio.new_event_loop()

    def _run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # pragma: no cover - bind failures
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(
        target=_run, name="repro-serve-loop", daemon=True
    )
    thread.start()
    if not started.wait(timeout):  # pragma: no cover - defensive
        raise TimeoutError("join server did not start in time")
    if failure:
        raise failure[0]
    return ServerHandle(server=server, loop=loop, thread=thread)
