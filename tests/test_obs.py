"""Tests for ``repro.obs``: continuous observability over the join system.

Covers the four tentpole pieces and their serving integration:

* :class:`RunHistory` -- append/replay round trips, logrotate-style
  retention, crash-tolerant readers (a partial trailing line is skipped
  and counted, never raised), and the replay path into
  ``repro.planner.accuracy.replay_reports``;
* the Prometheus exporter -- the metrics-name lint (every family the
  join server exports has help text, a snake_case ``repro_`` prefix and
  a stable unit suffix), and the text exposition format itself
  (cumulative buckets, ``+Inf`` == count, label escaping) validated by
  an independent parser;
* the SLO watchdog -- edge-triggered breach/recovery transitions on a
  fake clock, window expiry, and the error-rate objective;
* ``repro top`` -- the pure renderer over a stats payload and the
  polling dashboard against a live server;
* serving integration -- history written by real served queries replays
  into per-phase planner clock errors, the scrape endpoint answers HTTP,
  a ``shutdown`` op and a SIGTERM both leave a fully-parseable history
  file, and observability never changes the join answer (bit-identity)
  nor costs more than 2% of a query (perfsmoke).
"""

from __future__ import annotations

import io
import json
import logging
import os
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.engine.telemetry import (
    MetricsRegistry,
    Span,
    Telemetry,
    validate_span_tree,
)
from repro.joins.distance_join import JoinConfig, distance_join
from repro.obs import (
    MetricsExporter,
    RunHistory,
    SLOConfig,
    SLOWatchdog,
    TopDashboard,
    render_stats,
    validate_metric_name,
)
from repro.obs.exporter import CONTENT_TYPE
from repro.planner.accuracy import replay_reports
from repro.serving import (
    JoinClient,
    JoinServer,
    ServerConfig,
    ServerError,
    start_in_thread,
)

BASE_N = 1200
EPS = 0.012

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _report(run_id="r-1", predicted=None, modelled=None) -> dict:
    """A minimal RunReport.to_json()-shaped dict for store tests."""
    stages = []
    for stage, secs in (modelled or {}).items():
        stages.append(
            {"stage": stage, "wall_seconds": secs, "modelled_seconds": secs}
        )
    report = {
        "header": {"run_id": run_id, "wall_seconds": 0.01, "spans": 3},
        "stages": stages,
        "workers": [],
        "recovery": [],
        "shuffle_matrix": None,
        "planner": {"predicted": predicted} if predicted else None,
        "metrics": {},
    }
    return report


# ----------------------------------------------------------------------
# RunHistory
# ----------------------------------------------------------------------
class TestRunHistory:
    def test_append_and_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        history = RunHistory(path)
        for i in range(3):
            rid = history.append_report(_report(run_id=f"run-{i}"))
            assert rid == f"run-{i}"
        history.flush()
        reports = list(history.reports())
        assert len(reports) == 3
        assert [r["header"]["run_id"] for r in reports] == [
            "run-0", "run-1", "run-2"
        ]
        assert history.run_ids() == ["run-0", "run-1", "run-2"]
        assert history.get("run-1")["header"]["run_id"] == "run-1"
        assert history.get("nope") is None
        stats = history.stats()
        assert stats["appended"] == 3
        assert stats["rotations"] == 0
        assert stats["corrupt_lines"] == 0
        history.close()

    def test_rotation_bounds_disk(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        history = RunHistory(path, max_bytes=2_000, retain_files=2)
        for i in range(50):
            history.append_report(_report(run_id=f"run-{i}"))
        stats = history.stats()
        assert stats["rotations"] >= 2
        files = history.files()
        # at most retain_files rotated generations plus the active file
        assert 1 <= len(files) <= 3
        assert files[-1] == path  # active file is newest
        for f in files:
            assert os.path.getsize(f) <= 2_000 + 512
        # entries stay oldest-first and parse across generations
        ids = history.run_ids()
        assert ids == sorted(ids, key=lambda s: int(s.split("-")[1]))
        assert ids[-1] == "run-49"
        history.close()

    def test_corrupt_and_partial_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        history = RunHistory(path)
        history.append_report(_report(run_id="good-1"))
        history.close()
        with open(path, "a") as fh:
            fh.write("this is not json\n")
            fh.write(json.dumps({"type": "wrong_kind"}) + "\n")
        reader = RunHistory(path)
        reader.append_report(_report(run_id="good-2"))
        # simulate a crash mid-append: a final line with no newline
        with open(path, "a") as fh:
            fh.write('{"type": "run_report", "run_id": "torn", "repo')
        ids = reader.run_ids()
        assert ids == ["good-1", "good-2"]
        assert reader.stats()["corrupt_lines"] == 3
        reader.close()

    def test_close_is_idempotent_and_final(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        with RunHistory(path) as history:
            history.append_report(_report())
        history.close()  # second close is a no-op
        assert history.stats()["closed"]
        with pytest.raises(ValueError, match="closed"):
            history.append_report(_report())

    def test_replays_through_planner_accuracy(self, tmp_path):
        history = RunHistory(str(tmp_path / "history.jsonl"))
        for i in range(3):
            history.append_report(
                _report(
                    run_id=f"run-{i}",
                    predicted={"construction": 0.5, "join": 1.0},
                    modelled={"shuffle": 0.6, "local_join": 0.9},
                )
            )
        errors = replay_reports(history.reports())
        phases = [e.phase for e in errors]
        assert phases.count("construction") == 3
        assert phases.count("join") == 3
        assert phases.count("total") == 3
        for err in errors:
            assert np.isfinite(err.relative_error)
        history.close()


# ----------------------------------------------------------------------
# metric naming lint
# ----------------------------------------------------------------------
class TestMetricNameLint:
    @pytest.mark.parametrize("name,kind", [
        ("repro_queries_total", "counter"),
        ("repro_query_latency_seconds", "histogram"),
        ("repro_cache_bytes", "gauge"),
        ("repro_planner_clock_error_ratio", "histogram"),
        ("repro_admission_inflight", "gauge"),
    ])
    def test_accepts_conforming_names(self, name, kind):
        validate_metric_name(name, kind)

    @pytest.mark.parametrize("name,kind", [
        ("queries_total", "counter"),          # missing repro_ prefix
        ("repro_Queries_total", "counter"),    # not snake_case
        ("repro__queries_total", "counter"),   # double underscore
        ("repro_queries", "counter"),          # counter without _total
        ("repro_uptime_total", "gauge"),       # gauge stealing _total
        ("repro_latency", "histogram"),        # histogram without a unit
        ("repro_seconds_latency", "gauge"),    # unit word not terminal
        ("repro_queries_total", "bogus"),      # unknown kind
    ])
    def test_rejects_malformed_names(self, name, kind):
        with pytest.raises(ValueError):
            validate_metric_name(name, kind)

    def test_exporter_enforces_lint_at_registration(self):
        ex = MetricsExporter()
        with pytest.raises(ValueError, match="_total"):
            ex.register("repro_bad", "counter", "help", lambda: 0)
        with pytest.raises(ValueError, match="help"):
            ex.register("repro_ok_total", "counter", "  ", lambda: 0)
        ex.register("repro_ok_total", "counter", "fine", lambda: 0)
        with pytest.raises(ValueError, match="twice"):
            ex.register("repro_ok_total", "counter", "fine", lambda: 0)

    def test_every_server_metric_passes_the_lint(self):
        """The satellite lint: every family the join server exports obeys
        the naming contract -- help text, prefix, unit suffixes."""
        server = JoinServer(ServerConfig())
        specs = server.exporter.specs()
        assert len(specs) >= 20  # the server exports a real surface
        names = [spec.name for spec in specs]
        assert len(names) == len(set(names)), "duplicate family names"
        for spec in specs:
            validate_metric_name(spec.name, spec.kind)  # raises on breach
            assert spec.help.strip(), f"{spec.name} has no help text"
            assert spec.kind in ("counter", "gauge", "histogram")


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _parse_prometheus(text: str) -> dict:
    """Tiny independent parser: family -> {type, help, samples{name+labels: value}}."""
    families: dict = {}
    current = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            current = families.setdefault(
                name, {"help": help_text, "type": None, "samples": {}}
            )
            current["help"] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(
                name, {"help": "", "type": None, "samples": {}}
            )["type"] = kind
        else:
            assert not line.startswith("#"), f"unknown comment: {line!r}"
            key, _, value = line.rpartition(" ")
            assert key and value, f"malformed sample line: {line!r}"
            base = key.split("{")[0]
            family = base
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base[: -len(suffix)] in families:
                    family = base[: -len(suffix)]
            assert family in families, f"sample before HELP/TYPE: {line!r}"
            families[family]["samples"][key] = float(value)
    return families


class TestExporterRender:
    def test_render_parses_and_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", (0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(v)
        ex = MetricsExporter()
        ex.register("repro_things_total", "counter", "Things.", lambda: 7)
        ex.register("repro_depth", "gauge", "Depth.", lambda: 3.5)
        ex.register(
            "repro_latency_seconds", "histogram", "Latency.", lambda: hist
        )
        ex.register(
            "repro_labeled_total", "counter", "Labeled.",
            lambda: [({"cache": 'a"b\n'}, 1.0), ({"cache": "plain"}, 2.0)],
        )
        text = ex.render()
        families = _parse_prometheus(text)

        assert families["repro_things_total"]["type"] == "counter"
        assert families["repro_things_total"]["samples"]["repro_things_total"] == 7
        assert families["repro_depth"]["samples"]["repro_depth"] == 3.5

        lat = families["repro_latency_seconds"]
        assert lat["type"] == "histogram"
        buckets = [
            v for k, v in lat["samples"].items() if "_bucket" in k
        ]
        assert buckets == sorted(buckets), "buckets must be cumulative"
        inf = lat["samples"]['repro_latency_seconds_bucket{le="+Inf"}']
        assert inf == lat["samples"]["repro_latency_seconds_count"] == 5
        assert lat["samples"]["repro_latency_seconds_sum"] == pytest.approx(
            0.05 + 0.5 + 0.5 + 5.0 + 50.0
        )

        labeled = families["repro_labeled_total"]["samples"]
        assert labeled['repro_labeled_total{cache="a\\"b\\n"}'] == 1.0
        assert labeled['repro_labeled_total{cache="plain"}'] == 2.0

    def test_broken_collector_is_skipped_and_counted(self):
        ex = MetricsExporter()

        def boom():
            raise RuntimeError("broken gauge")

        ex.register("repro_broken", "gauge", "Always raises.", boom)
        ex.register("repro_fine", "gauge", "Fine.", lambda: 1)
        ex.register("repro_absent", "gauge", "Off feature.", lambda: None)
        text = ex.render()
        assert "repro_broken" not in text.replace("# HELP", "")
        families = _parse_prometheus(ex.render())
        assert families["repro_fine"]["samples"]["repro_fine"] == 1
        assert "repro_absent" not in families
        # the error counter is collected before the broken gauge raises,
        # so scrape N reports the errors of scrapes 1..N-1: two renders
        # have happened, the second saw the first's error
        assert (
            _parse_prometheus(ex.render())[
                "repro_exporter_collect_errors_total"
            ]["samples"]["repro_exporter_collect_errors_total"]
            == 2
        )


# ----------------------------------------------------------------------
# SLO watchdog
# ----------------------------------------------------------------------
class TestSLOWatchdog:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            SLOConfig(window_seconds=0)
        with pytest.raises(ValueError, match="p95"):
            SLOConfig(p95_seconds=-1)
        with pytest.raises(ValueError, match="error_rate"):
            SLOConfig(error_rate=1.5)
        with pytest.raises(ValueError, match="min_samples"):
            SLOConfig(min_samples=0)
        assert not SLOConfig().enabled
        assert SLOConfig(p95_seconds=0.5).enabled

    def test_breach_and_recovery_are_edge_triggered(self, caplog):
        clock = [0.0]
        dog = SLOWatchdog(
            SLOConfig(window_seconds=60.0, p95_seconds=0.1, min_samples=3),
            clock=lambda: clock[0],
        )
        with caplog.at_level(logging.INFO, logger="repro"):
            for _ in range(3):
                clock[0] += 1.0
                dog.observe(0.01)
            assert not dog.degraded

            for _ in range(5):
                clock[0] += 1.0
                dog.observe(0.5)  # way past the 100ms p95 objective
            assert dog.degraded
            assert dog.alerts == 1
            breaches = [
                r for r in caplog.records if "SLO breach" in r.getMessage()
            ]
            assert len(breaches) == 1  # edge-triggered, not per-query
            assert breaches[0].levelno == logging.WARNING
            assert "p95" in breaches[0].getMessage()

            # continued breach: still one alert, no extra warnings
            clock[0] += 1.0
            dog.observe(0.5)
            assert dog.alerts == 1

            # window slides past the slow samples -> recovery logged once
            clock[0] += 120.0
            for _ in range(5):
                clock[0] += 1.0
                dog.observe(0.01)
            assert not dog.degraded
            recoveries = [
                r for r in caplog.records if "SLO recovered" in r.getMessage()
            ]
            assert len(recoveries) == 1
        status = dog.status()
        assert status["alerts"] == 1 and status["recoveries"] == 1
        assert status["window"]["p95_seconds"] <= 0.1

    def test_error_rate_objective_counts_failures(self):
        clock = [0.0]
        dog = SLOWatchdog(
            SLOConfig(window_seconds=60.0, error_rate=0.2, min_samples=5),
            clock=lambda: clock[0],
        )
        for _ in range(8):
            clock[0] += 0.1
            dog.observe(0.01)
        assert not dog.degraded
        for _ in range(4):
            clock[0] += 0.1
            dog.observe(0.0, failed=True)
        assert dog.degraded
        status = dog.status()
        assert status["window"]["failures"] == 4
        assert status["window"]["error_rate"] > 0.2
        # failed samples never pollute the latency percentiles
        assert status["window"]["p95_seconds"] == pytest.approx(0.01)

    def test_min_samples_suppresses_flapping(self):
        dog = SLOWatchdog(SLOConfig(p95_seconds=0.1, min_samples=5))
        for _ in range(4):
            dog.observe(9.9)
        assert not dog.degraded  # not enough evidence yet
        dog.observe(9.9)
        assert dog.degraded


# ----------------------------------------------------------------------
# repro top (renderer + dashboard loop)
# ----------------------------------------------------------------------
def _stats_payload(queries=10, uptime=100.0):
    return {
        "ok": True,
        "pid": 4242,
        "backend": "serial",
        "uptime_seconds": uptime,
        "queries_total": queries,
        "queries_failed": 1,
        "degraded": False,
        "latency": {
            "count": queries, "p50": 0.01, "p95": 0.05, "p99": 0.09,
            "mean": 0.02, "max": 0.09,
        },
        "artifact_cache": {"hits": 3, "misses": 2, "bytes": 1024},
        "result_cache": {"hits": 1, "misses": 4},
        "plan_cache": {"hits": 0, "misses": 0},
        "admission": {
            "running": 1, "max_inflight": 2, "waiting": 0, "max_queue": 8,
            "rejected": 0, "coalesced": 2,
        },
        "planner_errors": {
            "construction": {"count": 3, "mean": 0.15, "p95": 0.4},
            "join": {"count": 3, "mean": 0.10, "p95": 0.2},
        },
        "cluster": {
            "daemons_spawned": 4, "daemons_lost": 1,
            "daemon_rejoins": 1, "blocks_refetched": 2,
        },
        "slo": {
            "enabled": True, "degraded": True, "alerts": 1,
            "violations": ["p95 0.0500s > 0.0100s"],
            "window": {"p95_seconds": 0.05, "error_rate": 0.1},
        },
        "history": {
            "appended": queries, "active_bytes": 2048, "rotations": 0,
            "path": "/tmp/history.jsonl",
        },
        "datasets": [{"name": "R", "n": 100}, {"name": "S", "n": 100}],
        "metrics_endpoint": "http://127.0.0.1:9100/metrics",
        "serving": {"queries": queries, "queries_failed": 1, "errors": 1},
    }


class TestRenderStats:
    def test_all_sections_render(self):
        text = render_stats(_stats_payload())
        assert "pid 4242" in text and "backend=serial" in text
        for section in ("queries", "latency", "caches", "admission",
                        "plan err", "cluster", "slo", "history",
                        "datasets", "metrics"):
            assert section in text, f"missing section {section!r}"
        assert "R, S" in text
        assert "! p95" in text  # the SLO violation detail line
        assert "10.0ms" in text  # p50 formatting

    def test_deltas_and_rate_against_previous_poll(self):
        prev = _stats_payload(queries=10, uptime=100.0)
        cur = _stats_payload(queries=30, uptime=110.0)
        text = render_stats(cur, prev)
        assert "(+20)" in text      # query delta
        assert "2.00 q/s" in text   # 20 queries over 10 seconds

    def test_degrades_gracefully_on_minimal_payload(self):
        text = render_stats({"pid": 1, "backend": "serial"})
        assert "pid 1" in text
        assert "healthy" in text
        assert "slo" not in text and "history" not in text

    def test_degraded_flag_flips_the_header(self):
        payload = _stats_payload()
        payload["degraded"] = True
        assert "DEGRADED" in render_stats(payload)


class TestTopDashboard:
    def test_renders_frames_with_deltas(self):
        polls = iter([_stats_payload(10, 100.0), _stats_payload(20, 102.0),
                      _stats_payload(30, 104.0)])
        slept = []
        out = io.StringIO()
        dash = TopDashboard(
            lambda: next(polls), interval=0.5, iterations=3, out=out,
            clear=False, sleep=slept.append,
        )
        assert dash.run() == 3
        assert slept == [0.5, 0.5]  # no sleep before the first frame
        text = out.getvalue()
        assert text.count("pid 4242") == 3
        assert "(+10)" in text
        assert "\x1b[2J" not in text

    def test_clear_prefixes_each_frame(self):
        out = io.StringIO()
        TopDashboard(
            _stats_payload, interval=1.0, iterations=2, out=out,
            sleep=lambda _: None,
        ).run()
        assert out.getvalue().count("\x1b[2J") == 2

    def test_keyboard_interrupt_exits_cleanly(self):
        def poll():
            raise KeyboardInterrupt

        out = io.StringIO()
        dash = TopDashboard(poll, interval=1.0, out=out)
        assert dash.run() == 0

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            TopDashboard(lambda: {}, interval=0.0)


# ----------------------------------------------------------------------
# serving integration
# ----------------------------------------------------------------------
def _register(client):
    client.register("R", "R1", base_n=BASE_N)
    client.register("S", "S1", base_n=BASE_N)


@pytest.mark.serving
class TestServerObservability:
    def test_history_replays_planner_clock_errors(self, tmp_path):
        """The acceptance loop: >=3 distinct served queries accumulate in
        the RunHistory and replay into per-phase clock errors."""
        history_path = str(tmp_path / "serve-history.jsonl")
        handle = start_in_thread(
            ServerConfig(backend="serial", history_path=history_path)
        )
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                _register(c)
                for eps in (0.008, 0.012, 0.016):  # three distinct queries
                    got = c.query("R", "S", eps=eps, tuning="auto")
                    assert got["ok"] and got["results"] > 0
                stats = c.stats()
            assert stats["history"]["appended"] == 3
        finally:
            handle.stop()
        reader = RunHistory(history_path)
        reports = list(reader.reports())
        assert len(reports) == 3
        run_ids = reader.run_ids()
        assert len(set(run_ids)) == 3  # distinct runs, distinct ids
        for report in reports:  # a serial server plans on the wall clock
            assert report["planner"]["predicted"].keys() == {
                "clock", "build", "assign", "shuffle", "join"
            }
            assert report["planner"]["predicted"]["clock"] == "wall"
        errors = replay_reports(reports)
        phases = {e.phase for e in errors}
        assert phases == {"build", "assign", "shuffle", "join", "total"}
        per_phase = [e for e in errors if e.phase == "assign"]
        assert len(per_phase) == 3
        for err in errors:
            assert np.isfinite(err.relative_error)
            payload = err.to_payload()
            assert {"phase", "predicted", "measured"} <= set(payload)

    def test_stats_op_reports_the_observability_surface(self, tmp_path):
        history_path = str(tmp_path / "history.jsonl")
        handle = start_in_thread(
            ServerConfig(
                backend="serial",
                history_path=history_path,
                metrics_port=0,
                slo_p95_seconds=30.0,
                slo_min_samples=1,
            )
        )
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                _register(c)
                c.query("R", "S", eps=EPS)
                with pytest.raises(ServerError):
                    c.query("R", "missing", eps=EPS)
                stats = c.stats()
            assert stats["uptime_seconds"] > 0
            assert stats["queries_total"] == 1
            assert stats["queries_failed"] == 1
            assert stats["degraded"] is False
            assert stats["latency"]["count"] == 1
            assert stats["latency"]["p95"] > 0
            assert stats["slo"]["enabled"] is True
            assert stats["slo"]["observed"] == 2  # 1 ok + 1 failed
            assert stats["history"]["appended"] == 1
            assert stats["history"]["path"] == history_path
            assert stats["metrics_endpoint"].startswith("http://127.0.0.1:")
            assert set(stats["planner_errors"]) == {
                "build", "assign", "shuffle", "join", "total"
            }
            assert stats["cluster"]["daemons_spawned"] == 0
        finally:
            handle.stop()

    def test_metrics_endpoint_serves_valid_prometheus_text(self):
        handle = start_in_thread(
            ServerConfig(backend="serial", metrics_port=0)
        )
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                _register(c)
                c.query("R", "S", eps=EPS)
                endpoint = c.stats()["metrics_endpoint"]
            with urllib.request.urlopen(endpoint, timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                text = resp.read().decode("utf-8")
            families = _parse_prometheus(text)  # raises on malformed text
            assert families["repro_queries_total"]["samples"][
                "repro_queries_total"
            ] == 1
            latency = families["repro_query_latency_seconds"]
            assert latency["type"] == "histogram"
            assert latency["samples"][
                'repro_query_latency_seconds_bucket{le="+Inf"}'
            ] == latency["samples"]["repro_query_latency_seconds_count"] == 1
            info_keys = [
                k for k in families["repro_server_info"]["samples"]
                if 'backend="serial"' in k
            ]
            assert info_keys, "server info gauge must carry the backend label"
            health = urllib.request.urlopen(
                endpoint.replace("/metrics", "/healthz"), timeout=10
            )
            assert health.status == 200
        finally:
            handle.stop()

    def test_slo_degraded_flag_reaches_stats(self):
        handle = start_in_thread(
            ServerConfig(
                backend="serial",
                slo_p95_seconds=1e-9,  # everything breaches
                slo_min_samples=1,
            )
        )
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                _register(c)
                c.query("R", "S", eps=EPS)
                stats = c.stats()
            assert stats["degraded"] is True
            assert stats["slo"]["degraded"] is True
            assert stats["slo"]["alerts"] == 1
            assert stats["slo"]["violations"]
        finally:
            handle.stop()

    def test_top_dashboard_renders_a_live_server(self):
        handle = start_in_thread(ServerConfig(backend="serial"))
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                _register(c)
                c.query("R", "S", eps=EPS)
                out = io.StringIO()
                dash = TopDashboard(
                    c.stats, interval=0.05, iterations=2, out=out,
                    clear=False,
                )
                assert dash.run() == 2
                text = out.getvalue()
            assert f"pid {os.getpid()}" in text
            assert "backend=serial" in text
            assert "queries    total 1" in text
            assert "latency" in text and "caches" in text
            assert "datasets   R, S" in text
        finally:
            handle.stop()

    def test_observability_never_changes_the_answer(self, tmp_path):
        """Bit-identity: obs-on serving == obs-off serving == one-shot."""
        r = load_dataset("R1", base_n=BASE_N)
        s = load_dataset("S1", base_n=BASE_N)
        oneshot = distance_join(r, s, JoinConfig(eps=EPS))
        reference = np.column_stack((oneshot.r_ids, oneshot.s_ids))

        def served_pairs(config):
            handle = start_in_thread(config)
            try:
                with JoinClient(socket_path=handle.socket_path) as c:
                    _register(c)
                    return c.query("R", "S", eps=EPS)["pairs"]
            finally:
                handle.stop()

        plain = served_pairs(ServerConfig(backend="serial"))
        observed = served_pairs(
            ServerConfig(
                backend="serial",
                history_path=str(tmp_path / "h.jsonl"),
                metrics_port=0,
                slo_p95_seconds=30.0,
            )
        )
        assert plain == observed
        assert np.array_equal(np.asarray(observed), reference)


# ----------------------------------------------------------------------
# clean shutdown: no partial JSONL lines
# ----------------------------------------------------------------------
def _assert_history_is_whole(path: str, expected_reports: int) -> None:
    """Every line parses, the file ends in a newline, replay works."""
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.endswith(b"\n"), "history must end on a complete line"
    lines = raw.decode("utf-8").splitlines()
    assert len(lines) == expected_reports
    for line in lines:
        entry = json.loads(line)  # raises on a torn line
        assert entry["type"] == "run_report"
        assert entry["report"]["header"]["run_id"] == entry["run_id"]
    reader = RunHistory(path)
    assert len(list(reader.reports())) == expected_reports
    assert reader.stats()["corrupt_lines"] == 0
    reader.close()


def _spawn_serve(tmp_path, history_path):
    """Run ``repro serve`` in a subprocess; returns (proc, socket_path)."""
    socket_path = str(tmp_path / "serve.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "serve", "--socket", socket_path, "--history", history_path,
            "--quiet", "--no-sweep",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 30
    while not os.path.exists(socket_path):
        if proc.poll() is not None:
            raise AssertionError("serve subprocess died before binding")
        if time.time() > deadline:
            proc.kill()
            raise AssertionError("serve subprocess never bound its socket")
        time.sleep(0.05)
    return proc, socket_path


@pytest.mark.serving
class TestCleanShutdown:
    @pytest.mark.timeout(120)
    def test_shutdown_op_flushes_history(self, tmp_path):
        history_path = str(tmp_path / "history.jsonl")
        proc, socket_path = _spawn_serve(tmp_path, history_path)
        try:
            with JoinClient(socket_path=socket_path, timeout=60.0) as c:
                _register(c)
                c.query("R", "S", eps=EPS)
                c.query("R", "S", eps=0.016)
                c.shutdown()
            assert proc.wait(timeout=30) == 0
            _assert_history_is_whole(history_path, expected_reports=2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    @pytest.mark.timeout(120)
    def test_sigterm_flushes_history(self, tmp_path):
        history_path = str(tmp_path / "history.jsonl")
        proc, socket_path = _spawn_serve(tmp_path, history_path)
        try:
            with JoinClient(socket_path=socket_path, timeout=60.0) as c:
                _register(c)
                c.query("R", "S", eps=EPS)
                c.query("R", "S", eps=0.016)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            _assert_history_is_whole(history_path, expected_reports=2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# cross-process span merge through the resident server
# ----------------------------------------------------------------------
@pytest.mark.cluster
@pytest.mark.serving
class TestClusterSpanMerge:
    def test_cluster_served_trace_is_one_valid_tree(self):
        """A traced query on the cluster backend returns one coherent
        span tree: daemon-side task spans merge under the server-side
        job/stage spans with no orphans."""
        handle = start_in_thread(
            ServerConfig(backend="cluster", executor_workers=2)
        )
        try:
            with JoinClient(
                socket_path=handle.socket_path, timeout=110.0
            ) as c:
                _register(c)
                got = c.query(
                    "R", "S", eps=EPS, trace=True, return_spans=True,
                    reuse_results=False,
                )
        finally:
            handle.stop()
        assert got["ok"] and got["results"] > 0
        spans = [Span.from_dict(row) for row in got["trace_spans"]]
        assert len(spans) == got["spans"]
        validate_span_tree(spans)  # unique ids, no orphans, one root
        cats = {s.cat for s in spans}
        assert "job" in cats and "stage" in cats
        task_workers = {
            s.worker for s in spans if s.cat == "task" and s.worker is not None
        }
        assert len(task_workers) >= 2, (
            "cluster task spans should come from multiple daemons"
        )
        # and the cluster answer matches the serial one-shot bit for bit
        r = load_dataset("R1", base_n=BASE_N)
        s = load_dataset("S1", base_n=BASE_N)
        oneshot = distance_join(r, s, JoinConfig(eps=EPS))
        assert np.array_equal(
            np.asarray(got["pairs"]),
            np.column_stack((oneshot.r_ids, oneshot.s_ids)),
        )


# ----------------------------------------------------------------------
# perfsmoke: enabled observability stays under 2%
# ----------------------------------------------------------------------
def _timed_join(r, s) -> float:
    started = time.perf_counter()
    distance_join(r, s, JoinConfig(eps=0.01))
    return time.perf_counter() - started


@pytest.mark.perfsmoke
@pytest.mark.timeout(120)
def test_observability_overhead_under_two_percent(tmp_path):
    """Per-query observability cost (history append + SLO observe) < 2%.

    Same idiom as the telemetry overhead guard: microbenchmark the
    per-query obs calls (whose cost scales with the report size, not the
    data size) and compare against the measured wall of a bench-sized
    join, instead of a noisy full A/B.
    """
    import timeit

    r = load_dataset("R1", base_n=10_000)
    s = load_dataset("S1", base_n=10_000)
    query_wall = min(
        _timed_join(r, s) for _ in range(2)
    )

    # a real report from a traced run, the payload history serialises
    telemetry = Telemetry.create()
    distance_join(r, s, JoinConfig(eps=0.01, telemetry=telemetry))
    report = telemetry.report().to_json()

    history = RunHistory(str(tmp_path / "bench.jsonl"))
    n = 200
    append_cost = timeit.timeit(
        lambda: history.append_report(report), number=n
    ) / n
    history.close()

    dog = SLOWatchdog(SLOConfig(p95_seconds=30.0))
    observe_cost = timeit.timeit(
        lambda: dog.observe(0.01), number=5_000
    ) / 5_000

    per_query = append_cost + observe_cost
    assert per_query < 0.02 * query_wall, (
        f"obs would cost {per_query * 1e3:.3f}ms of a "
        f"{query_wall * 1e3:.1f}ms query ({per_query / query_wall:.2%})"
    )
