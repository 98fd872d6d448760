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
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine import executor as executor_mod
from repro.engine.hygiene import (
    SERVE_PREFIX,
    sweep_stale_resources,
    write_owner_marker,
)
from repro.engine.lru import LRUCache
from repro.engine.telemetry import MetricsRegistry, Telemetry, get_logger
from repro.geometry.mbr import MBR
from repro.obs import (
    MetricsExporter,
    PrometheusEndpoint,
    RunHistory,
    SLOConfig,
    SLOWatchdog,
)
from repro.joins.distance_join import (
    GRID_METHODS,
    JoinConfig,
    distance_join,
)
from repro.joins.local import LOCAL_KERNELS
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
from repro.serving.registry import CODENAMES, DatasetRegistry

__all__ = ["JoinServer", "ServerConfig", "ServerHandle", "start_in_thread"]

#: Bucket bounds for planner clock-error histograms: these hold error
#: *ratios* (0.1 == 10% off), not seconds, so the log-spaced seconds
#: defaults would waste most buckets.
ERROR_RATIO_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

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

#: Fields a ``query`` request may carry (beyond ``op``).
QUERY_FIELDS = frozenset(
    {
        "r",
        "s",
        "eps",
        "method",
        "kernel",
        "workers",
        "tuning",
        "num_partitions",
        "cell_assignment",
        "sample_rate",
        "seed",
        "resolution_factor",
        "duplicate_free",
        "reuse_results",
        "max_pairs",
        "trace",
        "report",
        "return_spans",
    }
)


@dataclass(frozen=True)
class ServerConfig:
    """How one join server listens, caches, and executes."""

    #: Unix-domain socket path (``None``: a pid-stamped socket inside the
    #: state directory).  Mutually exclusive with ``port``.
    socket_path: str | None = None
    #: TCP port (``None``: unix socket).  The server never binds beyond
    #: localhost: serving the open internet is a reverse proxy's job.
    port: int | None = None
    host: str = "127.0.0.1"
    #: Byte budget of the artifact cache (grids, graphs, placements).
    cache_budget_bytes: int = 256_000_000
    #: Byte budget of the cross-query result cache (block store tier).
    result_cache_bytes: int = 64_000_000
    #: Admission control: concurrent executing queries / waiting queries.
    max_inflight: int = 2
    max_queue: int = 16
    #: Execution backend queries run on: any of the executor's
    #: ``BACKENDS``.  ``cluster`` spawns a per-query daemon fleet rather
    #: than drawing on a resident pool (long-lived daemons are a ROADMAP
    #: rung), but serving it matters for observability: daemon health
    #: flows into the stats op, the Prometheus exporter and ``repro top``.
    #: Fault injection still belongs to one-shot runs (``faults`` stays a
    #: rejected one-shot field).
    backend: str = "serial"
    #: OS-level worker cap for the parallel backends.
    executor_workers: int | None = None
    #: Default simulated workers for queries that do not set ``workers``.
    default_workers: int = 12
    #: State directory (``None``: a fresh pid-tagged temp directory).
    state_dir: str | None = None
    #: Run the startup hygiene sweep before binding.
    sweep_on_start: bool = True
    #: RunHistory JSONL path (``None``: history off).  Every executed
    #: query appends its RunReport; the file replays through
    #: ``repro.planner.accuracy.replay_reports``.
    history_path: str | None = None
    history_max_bytes: int = 64_000_000
    history_retain_files: int = 2
    #: Prometheus scrape endpoint port (``None``: exporter HTTP off;
    #: ``0``: bind an ephemeral port).  Loopback only.
    metrics_port: int | None = None
    #: SLO watchdog thresholds (all ``None``: watchdog off).
    slo_p95_seconds: float | None = None
    slo_p99_seconds: float | None = None
    slo_error_rate: float | None = None
    slo_window_seconds: float = 300.0
    slo_min_samples: int = 5

    def __post_init__(self):
        if self.socket_path is not None and self.port is not None:
            raise ValueError("socket_path and port are mutually exclusive")
        if self.port is not None and not (1 <= self.port <= 65535):
            raise ValueError(f"port must be in [1, 65535], got {self.port}")
        if self.backend not in executor_mod.BACKENDS:
            raise ValueError(
                f"serving backend must be one of {executor_mod.BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ValueError(
                f"metrics_port must be in [0, 65535], got {self.metrics_port}"
            )
        if self.history_max_bytes < 0:
            raise ValueError("history_max_bytes must be >= 0")
        if self.history_retain_files < 1:
            raise ValueError("history_retain_files must be >= 1")
        # delegate threshold validation (and hold the parsed config)
        object.__setattr__(self, "_slo_config", SLOConfig(
            window_seconds=self.slo_window_seconds,
            p95_seconds=self.slo_p95_seconds,
            p99_seconds=self.slo_p99_seconds,
            error_rate=self.slo_error_rate,
            min_samples=self.slo_min_samples,
        ))
        for name in ("cache_budget_bytes", "result_cache_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.default_workers < 1:
            raise ValueError("default_workers must be >= 1")


@dataclass
class QuerySpec:
    """One validated distance-join query."""

    r: str
    s: str
    eps: float
    method: str = "lpib"
    kernel: str = "plane_sweep"
    workers: int = 12
    num_partitions: int | None = None
    cell_assignment: str = "lpt"
    sample_rate: float = 0.03
    seed: int = 0
    resolution_factor: float = 2.0
    duplicate_free: bool = True
    reuse_results: bool = True
    max_pairs: int | None = None
    trace: bool = False
    report: bool = False
    #: Return the merged span trees (``Span.to_dict`` rows) in the
    #: response -- the cross-process span-merge test surface; requires
    #: ``trace``.
    return_spans: bool = False
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
                    server_pins = {"backend": config.backend}
                    if config.executor_workers is not None:
                        server_pins["executor_workers"] = (
                            config.executor_workers
                        )
                    pinned_text = ", ".join(
                        f"{k}={v}" for k, v in server_pins.items()
                    )
                    raise ProtocolError(
                        f"{name!r} is not a plannable choice: the server "
                        f"pins these plan dimensions for every query "
                        f"({pinned_text}); `tuning: auto` searches method, "
                        f"kernel, workers and resolution_factor only"
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
        spec = cls(
            r=str(request["r"]),
            s=str(request["s"]),
            eps=float(request["eps"]),
            method=str(request.get("method", "lpib")),
            kernel=str(request.get("kernel", "plane_sweep")),
            workers=int(request.get("workers", config.default_workers)),
            num_partitions=(
                int(request["num_partitions"])
                if request.get("num_partitions") is not None
                else None
            ),
            cell_assignment=str(request.get("cell_assignment", "lpt")),
            sample_rate=float(request.get("sample_rate", 0.03)),
            seed=int(request.get("seed", 0)),
            resolution_factor=float(request.get("resolution_factor", 2.0)),
            duplicate_free=bool(request.get("duplicate_free", True)),
            reuse_results=bool(request.get("reuse_results", True)),
            max_pairs=(
                int(request["max_pairs"])
                if request.get("max_pairs") is not None
                else None
            ),
            trace=bool(request.get("trace", False)),
            report=bool(request.get("report", False)),
            return_spans=bool(request.get("return_spans", False)),
            tuning=tuning,
            pinned=tuple(
                sorted(d for d in PLANNABLE_FIELDS if d in request)
            ),
        )
        if spec.eps <= 0:
            raise ProtocolError(f"eps must be positive, got {spec.eps}")
        if spec.method not in GRID_METHODS:
            raise ProtocolError(
                f"method must be one of {', '.join(GRID_METHODS)}; "
                f"got {spec.method!r}"
            )
        if spec.kernel not in LOCAL_KERNELS:
            raise ProtocolError(
                f"kernel must be one of {', '.join(sorted(LOCAL_KERNELS))}; "
                f"got {spec.kernel!r}"
            )
        if spec.workers < 1:
            raise ProtocolError(f"workers must be >= 1, got {spec.workers}")
        if spec.cell_assignment not in ("lpt", "hash"):
            raise ProtocolError(
                f"cell_assignment must be 'lpt' or 'hash', "
                f"got {spec.cell_assignment!r}"
            )
        if not (0.0 < spec.sample_rate <= 1.0):
            raise ProtocolError(
                f"sample_rate must be in (0, 1], got {spec.sample_rate}"
            )
        if spec.resolution_factor <= 0:
            raise ProtocolError("resolution_factor must be positive")
        if spec.max_pairs is not None and spec.max_pairs < 0:
            raise ProtocolError("max_pairs must be >= 0")
        if spec.return_spans and not spec.trace:
            raise ProtocolError("return_spans requires trace: true")
        return spec

    def join_config(self, config: ServerConfig, **extra) -> JoinConfig:
        return JoinConfig(
            eps=self.eps,
            method=self.method,
            sample_rate=self.sample_rate,
            num_workers=self.workers,
            num_partitions=self.num_partitions,
            cell_assignment=self.cell_assignment,
            resolution_factor=self.resolution_factor,
            duplicate_free=self.duplicate_free,
            local_kernel=self.kernel,
            seed=self.seed,
            execution_backend=config.backend,
            executor_workers=config.executor_workers,
            **extra,
        )


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
        #: keyed by the query; a result over the whole budget is not kept
        self._results = LRUCache(limit_bytes=self.config.result_cache_bytes)
        self._pool = None  # query thread pool, created on start
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = None  # asyncio.Event, created on start
        self._state_dir: str | None = None
        self._owns_state_dir = False
        self._socket_path: str | None = None
        self._started_at = time.time()
        self._closed = False
        self._shared_pools_enabled = False
        self.sweep_report: dict | None = None
        # --- continuous observability (repro.obs), all off by default --
        self.history = (
            RunHistory(
                self.config.history_path,
                max_bytes=self.config.history_max_bytes,
                retain_files=self.config.history_retain_files,
            )
            if self.config.history_path
            else None
        )
        slo_config: SLOConfig = self.config._slo_config
        self.slo = SLOWatchdog(slo_config) if slo_config.enabled else None
        self._metrics_endpoint: PrometheusEndpoint | None = None
        self.exporter = self._build_exporter()

    # ------------------------------------------------------------------
    # observability surfaces
    # ------------------------------------------------------------------
    def _cache_stats(self) -> dict:
        """All three cache tiers, keyed for labelled exporter families."""
        return {
            "artifact": self.artifacts.stats(),
            "result": self._results.stats(),
            "plan": self.plans.stats(),
        }

    def _cluster_stats(self) -> dict:
        """Daemon-health counters accumulated across cluster queries."""
        reg = self.registry
        return {
            "daemons_spawned": reg.value("serve.cluster_daemons_spawned"),
            "daemons_lost": reg.value("serve.cluster_daemons_lost"),
            "daemon_rejoins": reg.value("serve.cluster_daemon_rejoins"),
            "blocks_refetched": reg.value("serve.cluster_blocks_refetched"),
        }

    def _planner_error_histograms(self) -> dict:
        """|relative clock error| of chosen plans, one histogram a phase.

        The phases are those of the clock this server's backend is
        planned on (``serve.plan_abs_rel_error.<phase>``; the stats op
        and the exporter's ``repro_planner_clock_error_ratio`` family).
        """
        reg = self.registry
        phases = (*PHASE_STAGES[backend_clock(self.config.backend)], "total")
        return {
            phase: reg.histogram(
                f"serve.plan_abs_rel_error.{phase}", ERROR_RATIO_BUCKETS
            )
            for phase in phases
        }

    def _build_exporter(self) -> MetricsExporter:
        """Register every Prometheus family over live server state.

        Collectors close over ``self`` and are evaluated lazily at
        scrape time, so registration costs nothing on the query path;
        the families (and their naming rules) are pinned by the
        metrics-name lint in ``tests/test_obs.py``.
        """
        reg = self.registry
        ex = MetricsExporter()
        ex.register(
            "repro_server_uptime_seconds", "gauge",
            "Seconds since the join server process started.",
            lambda: time.time() - self._started_at,
        )
        ex.register(
            "repro_server_info", "gauge",
            "Constant 1; labels carry server identity (pid, backend).",
            lambda: [(
                {"pid": str(os.getpid()), "backend": self.config.backend},
                1.0,
            )],
        )
        ex.register(
            "repro_queries_total", "counter",
            "Join queries accepted by the query op.",
            lambda: reg.value("serve.queries"),
        )
        ex.register(
            "repro_queries_failed_total", "counter",
            "Join queries that ended in an error response.",
            lambda: reg.value("serve.queries_failed"),
        )
        ex.register(
            "repro_errors_total", "counter",
            "Requests of any op that returned an error response.",
            lambda: reg.value("serve.errors"),
        )
        ex.register(
            "repro_query_latency_seconds", "histogram",
            "End-to-end query latency, log-spaced buckets (cache hits "
            "included).",
            lambda: reg.histogram("serve.query_seconds"),
        )
        for stat, family, help_text in (
            ("hits", "repro_cache_hits_total",
             "Cache hits by tier (artifact/result/plan)."),
            ("misses", "repro_cache_misses_total",
             "Cache misses by tier (artifact/result/plan)."),
            ("evictions", "repro_cache_evictions_total",
             "Cache evictions by tier (artifact/result/plan)."),
        ):
            ex.register(
                family, "counter", help_text,
                lambda stat=stat: [
                    ({"cache": name}, float(st.get(stat, 0) or 0))
                    for name, st in self._cache_stats().items()
                ],
            )
        ex.register(
            "repro_cache_bytes", "gauge",
            "Resident bytes by cache tier (artifact/result).",
            lambda: [
                ({"cache": name}, float(st["bytes"]))
                for name, st in self._cache_stats().items()
                if st.get("bytes") is not None
            ],
        )
        ex.register(
            "repro_admission_inflight", "gauge",
            "Queries currently executing under admission control.",
            lambda: self.admission.stats()["running"],
        )
        ex.register(
            "repro_admission_queue_depth", "gauge",
            "Queries waiting in the admission queue.",
            lambda: self.admission.stats()["waiting"],
        )
        for stat, family, help_text in (
            ("admitted", "repro_admission_admitted_total",
             "Queries admitted for execution."),
            ("coalesced", "repro_admission_coalesced_total",
             "Duplicate concurrent queries coalesced onto one execution."),
            ("rejected", "repro_admission_rejected_total",
             "Queries rejected because the admission queue was full."),
        ):
            ex.register(
                family, "counter", help_text,
                lambda stat=stat: self.admission.stats()[stat],
            )
        ex.register(
            "repro_shared_pool_acquires_total", "counter",
            "Worker-pool acquisitions on the shared-pool path.",
            lambda: executor_mod.shared_pool_stats().get("acquires", 0),
        )
        ex.register(
            "repro_shared_pool_hits_total", "counter",
            "Worker-pool acquisitions served by a resident pool.",
            lambda: executor_mod.shared_pool_stats().get("hits", 0),
        )
        ex.register(
            "repro_shared_pool_resident", "gauge",
            "Resident shared worker pools currently alive.",
            lambda: len(executor_mod.shared_pool_stats().get("resident", [])),
        )
        ex.register(
            "repro_planner_clock_error_ratio", "histogram",
            "Absolute relative error of chosen plans on the clock they "
            "were priced on, by phase; 0.1 means 10% off.",
            lambda: [
                ({"phase": phase}, hist)
                for phase, hist in self._planner_error_histograms().items()
            ],
        )
        for key, family, help_text in (
            ("daemons_spawned", "repro_cluster_daemons_spawned_total",
             "Cluster daemons forked across served queries."),
            ("daemons_lost", "repro_cluster_daemons_lost_total",
             "Cluster daemons declared lost by heartbeat timeout."),
            ("daemon_rejoins", "repro_cluster_daemon_rejoins_total",
             "Replacement daemons that rejoined after a loss."),
            ("blocks_refetched", "repro_cluster_blocks_refetched_total",
             "Shuffle blocks re-fetched during cluster recovery."),
        ):
            ex.register(
                family, "counter", help_text,
                lambda key=key: self._cluster_stats()[key],
            )
        ex.register(
            "repro_slo_degraded", "gauge",
            "1 when the SLO watchdog's rolling window breaches a "
            "threshold, else 0.",
            lambda: 1.0 if self.slo is not None and self.slo.degraded else 0.0,
        )
        ex.register(
            "repro_slo_alerts_total", "counter",
            "Healthy-to-degraded SLO transitions since startup.",
            lambda: self.slo.alerts if self.slo is not None else 0,
        )
        ex.register(
            "repro_history_appended_total", "counter",
            "RunReports appended to the run-history store.",
            lambda: (
                self.history.stats()["appended"]
                if self.history is not None else 0
            ),
        )
        ex.register(
            "repro_history_bytes", "gauge",
            "Size of the active run-history JSONL file.",
            lambda: (
                self.history.stats()["active_bytes"]
                if self.history is not None else 0
            ),
        )
        ex.register(
            "repro_history_rotations_total", "counter",
            "Run-history file rotations since startup.",
            lambda: (
                self.history.stats()["rotations"]
                if self.history is not None else 0
            ),
        )
        return ex

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> dict:
        """Where the server listens (``{"socket": ...}`` or host/port)."""
        if self.config.port is not None:
            return {"host": self.config.host, "port": self.config.port}
        return {"socket": self._socket_path}

    async def start(self) -> None:
        """Sweep, claim the state dir, bind the socket, start serving."""
        if self.config.sweep_on_start:
            try:
                self.sweep_report = sweep_stale_resources()
                removed = (
                    len(self.sweep_report["dirs_removed"])
                    + len(self.sweep_report["sockets_removed"])
                )
                if removed:
                    self._log.info(
                        "startup sweep reclaimed %d stale server "
                        "resource(s)", removed,
                    )
            except Exception:  # pragma: no cover - hygiene never fatal
                self.sweep_report = None
        if self.config.state_dir is not None:
            os.makedirs(self.config.state_dir, exist_ok=True)
            self._state_dir = self.config.state_dir
        else:
            self._state_dir = tempfile.mkdtemp(prefix=SERVE_PREFIX)
            self._owns_state_dir = True
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
                host=self.config.host,
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
                self.exporter.render,
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
        if self._owns_state_dir and self._state_dir is not None:
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
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(
            self._pool,
            lambda: self.datasets.register_spec(
                str(name),
                str(spec),
                base_n=(
                    int(request["base_n"])
                    if request.get("base_n") is not None
                    else None
                ),
                payload_bytes=int(request.get("payload", 0)),
                replace=bool(request.get("replace", False)),
            ),
        )
        self.registry.counter("serve.registrations").inc()
        return {"ok": True, **entry.describe()}

    async def _op_datasets(self, request: dict) -> dict:
        return {"ok": True, "datasets": self.datasets.describe()}

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
        cfg = spec.join_config(self.config)
        qkey = query_key(cfg, r.fingerprint, s.fingerprint)
        akey = grid_partition_key(cfg, r.fingerprint, s.fingerprint)
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
                    spec, cfg, r, s, qkey, akey, planned=planned
                ),
            ),
        )
        return payload

    def _plan_query(self, spec, r, s):
        """Run the cost-based planner for an ``auto`` query (pool thread).

        Chosen plans are cached by dataset fingerprints + eps bucket +
        the client's pins; a hit replays the cached choice without
        re-sampling.  Returns the spec rewritten to the chosen choices
        plus a payload-ready planner summary.
        """
        from dataclasses import replace as _replace

        pins = {dim: getattr(spec, dim) for dim in spec.pinned}
        key = PlanCache.key(
            r.fingerprint,
            s.fingerprint,
            spec.eps,
            pins,
            backend=self.config.backend,
            sample_rate=spec.sample_rate,
            seed=spec.seed,
        )
        cached = self.plans.get(key)
        cache_hit = cached is not None
        if cached is None:
            base = JoinConfig(
                eps=spec.eps,
                sample_rate=spec.sample_rate,
                seed=spec.seed,
                num_workers=spec.workers,
                num_partitions=spec.num_partitions,
                cell_assignment=spec.cell_assignment,
                duplicate_free=spec.duplicate_free,
                execution_backend=self.config.backend,
                executor_workers=self.config.executor_workers,
            )
            jspec = JoinSpec.from_pointsets(
                r.points,
                s.points,
                spec.eps,
                sample_rate=spec.sample_rate,
                seed=spec.seed,
                r_fingerprint=r.fingerprint,
                s_fingerprint=s.fingerprint,
            )
            cached = plan_join(
                r.points,
                s.points,
                spec.eps,
                pins=pins,
                base=base,
                sample_rate=spec.sample_rate,
                seed=spec.seed,
                spec=jspec,
            )
            self.plans.put(key, cached)
            self.registry.counter("serve.plans").inc()
        else:
            self.registry.counter("serve.plan_cache_hits").inc()
        chosen = cached.chosen
        spec = _replace(
            spec,
            method=chosen.method,
            kernel=chosen.kernel,
            workers=chosen.workers,
            resolution_factor=chosen.resolution_factor,
        )
        return spec, {"planned": cached, "cache_hit": cache_hit}

    async def _op_range(self, request: dict) -> dict:
        """Envelope query over one dataset via a cached STR R-tree."""
        name = request.get("dataset")
        box = request.get("box")
        if not name or not isinstance(box, (list, tuple)) or len(box) != 4:
            raise ProtocolError(
                "range requires 'dataset' and 'box': [xmin, ymin, xmax, ymax]"
            )
        entry = self.datasets.get(str(name))
        xmin, ymin, xmax, ymax = (float(v) for v in box)
        if not (xmin <= xmax and ymin <= ymax):
            raise ProtocolError("box must satisfy xmin <= xmax, ymin <= ymax")
        max_ids = request.get("max_ids")
        loop = asyncio.get_running_loop()

        def _run():
            key = ("rtree", entry.fingerprint)
            index = self.artifacts.get(key)
            if index is None:
                from repro.baselines.rtree import RTree

                index = RTree(entry.points.xs, entry.points.ys)
                self.artifacts.put(key, index)
            idx, visited = index.query_envelope(MBR(xmin, ymin, xmax, ymax))
            ids = entry.points.ids[idx]
            ids = np.sort(ids)
            truncated = max_ids is not None and len(ids) > int(max_ids)
            if truncated:
                ids = ids[: int(max_ids)]
            return {
                "ok": True,
                "dataset": entry.name,
                "count": int(len(idx)),
                "ids": ids.tolist(),
                "ids_truncated": bool(truncated),
                "nodes_visited": int(visited),
            }

        result = await loop.run_in_executor(self._pool, _run)
        self.registry.counter("serve.range_queries").inc()
        return result

    async def _op_stats(self, request: dict) -> dict:
        reg = self.registry
        return {
            "ok": True,
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self._started_at,
            "address": self.address,
            "backend": self.config.backend,
            "queries_total": reg.value("serve.queries"),
            "queries_failed": reg.value("serve.queries_failed"),
            "degraded": bool(self.slo is not None and self.slo.degraded),
            "datasets": self.datasets.describe(),
            "latency": reg.histogram("serve.query_seconds").snapshot(),
            "artifact_cache": self.artifacts.stats(),
            "result_cache": self._results.stats(),
            "admission": self.admission.stats(),
            "shared_pools": executor_mod.shared_pool_stats(),
            "plan_cache": self.plans.stats(),
            "planner_errors": {
                phase: hist.snapshot()
                for phase, hist in self._planner_error_histograms().items()
            },
            "cluster": self._cluster_stats(),
            "slo": (
                self.slo.status()
                if self.slo is not None
                else {"enabled": False, "degraded": False}
            ),
            "history": (
                self.history.stats() if self.history is not None else None
            ),
            "metrics_endpoint": (
                self._metrics_endpoint.address
                if self._metrics_endpoint is not None
                else None
            ),
            "serving": {
                "queries": reg.value("serve.queries"),
                "queries_failed": reg.value("serve.queries_failed"),
                "plans": reg.value("serve.plans"),
                "plan_cache_hits": reg.value("serve.plan_cache_hits"),
                "plan_total_abs_rel_error_mean": (
                    reg.histogram("serve.plan_total_abs_rel_error").mean
                ),
                "result_cache_hits": reg.value("serve.result_cache_hits"),
                "warm_builds": reg.value("serve.warm_builds"),
                "cold_builds": reg.value("serve.cold_builds"),
                "range_queries": reg.value("serve.range_queries"),
                "registrations": reg.value("serve.registrations"),
                "errors": reg.value("serve.errors"),
                "query_seconds_mean": (
                    reg.histogram("serve.query_seconds").mean
                ),
            },
        }

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

    def _execute_query(self, spec, cfg, r, s, qkey, akey, planned=None) -> dict:
        started = time.perf_counter()
        if spec.reuse_results:
            cached = self._results.get(qkey)
            if cached is not None:
                r_ids, s_ids, metrics_payload = cached
                self.registry.counter("serve.result_cache_hits").inc()
                payload = self._result_payload(
                    spec, r_ids, s_ids, metrics_payload
                )
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
        run_cfg = spec.join_config(
            self.config,
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
        self._accumulate_cluster_metrics(result.metrics)
        metrics_payload = _metrics_payload(result.metrics)
        self._result_cache_put(qkey, result, metrics_payload)

        payload = self._result_payload(
            spec, result.r_ids, result.s_ids, metrics_payload
        )
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
            histograms = self._planner_error_histograms()
            for err in errors:
                if err.measured <= 0:
                    continue
                if err.phase == "total":
                    self.registry.histogram(
                        "serve.plan_total_abs_rel_error"
                    ).observe(abs(err.relative_error))
                histograms[err.phase].observe(abs(err.relative_error))
            payload["planner"] = planner_payload
            planner_meta["errors"] = planner_payload["errors"]
        if spec.trace:
            payload["spans"] = len(telemetry.tracer)
        if spec.return_spans:
            payload["trace_spans"] = [
                span.to_dict() for span in telemetry.tracer.spans()
            ]
        if spec.report:
            payload["report"] = telemetry.report().render()
        return self._finish(payload, started)

    def _accumulate_cluster_metrics(self, metrics) -> None:
        """Fold one run's daemon-health extras into server counters."""
        extra = getattr(metrics, "extra", None) or {}
        for key in (
            "cluster_daemons_spawned",
            "cluster_daemons_lost",
            "cluster_daemon_rejoins",
            "cluster_blocks_refetched",
        ):
            value = extra.get(key)
            if value:
                self.registry.counter(f"serve.{key}").inc(int(value))

    def _finish(self, payload: dict, started: float) -> dict:
        latency = time.perf_counter() - started
        self.registry.histogram("serve.query_seconds").observe(latency)
        if self.slo is not None:
            self.slo.observe(latency)
        payload["latency_seconds"] = latency
        payload["artifact_cache"] = self.artifacts.stats()
        return payload

    def _result_payload(self, spec, r_ids, s_ids, metrics_payload) -> dict:
        limit = spec.max_pairs
        truncated = limit is not None and len(r_ids) > limit
        if limit is not None:
            out_r, out_s = r_ids[:limit], s_ids[:limit]
        else:
            out_r, out_s = r_ids, s_ids
        return {
            "ok": True,
            "results": int(len(r_ids)),
            "pairs": np.column_stack((out_r, out_s)).tolist()
            if len(out_r)
            else [],
            "pairs_truncated": bool(truncated),
            "metrics": metrics_payload,
        }

    # ------------------------------------------------------------------
    # the cross-query result cache
    # ------------------------------------------------------------------
    def _result_cache_put(self, qkey, result, metrics_payload) -> None:
        # the cache owns its bytes: the job's columns are views of pool
        # slabs sized for every candidate, and a cached view would pin its
        # slab while the entry lives; an exact-size copy is what the budget
        # counts, and the slabs go back for the next query to lease
        r_ids, s_ids = result.r_ids.copy(), result.s_ids.copy()
        self._results.put(
            qkey,
            (r_ids, s_ids, metrics_payload),
            r_ids.nbytes + s_ids.nbytes + estimate_nbytes(metrics_payload),
        )


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
