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
* the stats dashboard -- the pure renderer, over a fed stats payload
  and over a live server's;
* serving integration -- history written by real served queries replays
  into per-phase planner clock errors, the scrape endpoint answers HTTP,
  a ``shutdown`` op and a SIGTERM both leave a fully-parseable history
  file, and observability never changes the join answer (bit-identity)
  nor costs more than 2% of a query (perfsmoke).
"""

from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys
import re
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.engine.telemetry import MetricsRegistry, Telemetry
from repro.joins.distance_join import JoinConfig, distance_join
from repro.obs import (
    Family,
    RunHistory,
    SLOWatchdog,
    check_families,
    render_metrics,
    render_stats,
    validate_metric_name,
)
from repro.obs.exporter import CONTENT_TYPE
from repro.obs.slo import MIN_SAMPLES, WINDOW_SECONDS, _percentile
from repro.planner.accuracy import replay_reports
from repro.serving import (
    JoinClient,
    JoinServer,
    ServerConfig,
    ServerError,
    start_in_thread,
)
from repro.serving.server import ERROR_RATIO_BUCKETS, METRIC_FAMILIES

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
        assert [e["run_id"] for e in history.entries()] == ["run-0", "run-1", "run-2"]
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
        ids = [e["run_id"] for e in history.entries()]
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
        ids = [e["run_id"] for e in reader.entries()]
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

    def test_family_table_check_enforces_the_lint(self):
        with pytest.raises(ValueError, match="_total"):
            check_families([Family("repro_bad", "counter", "help", "x")])
        with pytest.raises(ValueError, match="help"):
            check_families([Family("repro_ok_total", "counter", "  ", "x")])
        ok = Family("repro_ok_total", "counter", "fine", "x")
        assert check_families([ok]) == (ok,)
        with pytest.raises(ValueError, match="twice"):
            check_families([ok, ok])

    def test_every_server_metric_passes_the_lint(self):
        """Every family the join server exports obeys the naming
        contract -- help text, prefix, unit suffixes."""
        assert len(METRIC_FAMILIES) >= 20  # the server exports a real surface
        names = [family.name for family in METRIC_FAMILIES]
        assert len(names) == len(set(names)), "duplicate family names"
        for family in METRIC_FAMILIES:
            validate_metric_name(family.name, family.kind)  # raises on breach
            assert family.help.strip(), f"{family.name} has no help text"


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
        snapshot = {
            "things": 7,
            "depth": 3.5,
            "latency": hist.snapshot(),
            "tiers": {'a"b\n': 1, "plain": 2},
        }
        families = check_families([
            Family("repro_things_total", "counter", "Things.", "things"),
            Family("repro_depth", "gauge", "Depth.", "depth"),
            Family("repro_latency_seconds", "histogram", "Latency.", "latency"),
            Family("repro_labeled_total", "counter", "Labeled.", "tiers.{cache}"),
        ])
        text = render_metrics(snapshot, families)
        # the wire shape (JSON: bucket bounds become strings) renders alike
        assert render_metrics(json.loads(json.dumps(snapshot)), families) == text
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

    def test_absent_family_is_omitted(self):
        families = _parse_prometheus(render_metrics(
            {"fine": 1, "feature": None},
            check_families([
                Family("repro_fine", "gauge", "Fine.", "fine"),
                Family("repro_absent", "gauge", "Off feature.", "feature.depth"),
                Family("repro_off_total", "counter", "Off, reported 0.",
                       "feature.count", 0),
            ]),
        ))
        assert families["repro_fine"]["samples"]["repro_fine"] == 1
        assert "repro_absent" not in families
        assert families["repro_off_total"]["samples"]["repro_off_total"] == 0


# ----------------------------------------------------------------------
# SLO watchdog
# ----------------------------------------------------------------------
class TestSLOWatchdog:
    def test_config_validation(self):
        for bad in (-1, 0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slo_p95_seconds"):
                ServerConfig(slo_p95_seconds=bad)
        for bad in (0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="slo_error_rate"):
                ServerConfig(slo_error_rate=bad)
        assert not SLOWatchdog(None, None).enabled
        assert SLOWatchdog(0.5, None).enabled
        assert SLOWatchdog(None, 0.1).enabled
        assert JoinServer(ServerConfig()).slo is None
        assert JoinServer(ServerConfig(slo_error_rate=0.1)).slo is not None

    def test_breach_and_recovery_are_edge_triggered(self, caplog):
        clock = [0.0]
        dog = SLOWatchdog(0.1, None, clock=lambda: clock[0])
        with caplog.at_level(logging.INFO, logger="repro"):
            for _ in range(MIN_SAMPLES):
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
            clock[0] += WINDOW_SECONDS
            for _ in range(MIN_SAMPLES):
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
        dog = SLOWatchdog(None, 0.2, clock=lambda: clock[0])
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

    def test_sorted_window_replays_the_resorting_verdicts(self, caplog):
        """The window's latencies are kept sorted as they come and go.
        Replayed through a seeded trace -- bursts of slow queries and of
        failures, repeated latencies, samples expiring -- every status
        and every alert and recovery equals what re-sorting the whole
        window on each call gives."""

        class Resorting(SLOWatchdog):
            def _window_locked(self):
                latencies = sorted(s[1] for s in self._samples if not s[2])
                failures = sum(1 for s in self._samples if s[2])
                total = len(self._samples)
                return {
                    "samples": total,
                    "failures": failures,
                    "error_rate": failures / total if total else 0.0,
                    "p50_seconds": _percentile(latencies, 0.50),
                    "p95_seconds": _percentile(latencies, 0.95),
                    "p99_seconds": _percentile(latencies, 0.99),
                    "max_seconds": latencies[-1] if latencies else 0.0,
                }

        # the trace's clock in units of the window
        rng = np.random.default_rng(7)
        steps = 3_000
        gaps = rng.exponential(0.01, steps) * WINDOW_SECONDS
        gaps[rng.random(steps) < 0.005] = 3.0 * WINDOW_SECONDS  # idle spells empty it
        slow = (np.arange(steps) // 250) % 3 == 1  # alternating slow phases
        latencies = np.round(rng.lognormal(-4.5, 0.6, steps), 3) + slow * 0.2
        failed = rng.random(steps) < np.where(slow, 0.3, 0.02)

        def replay(cls):
            clock = [0.0]
            dog = cls(0.05, 0.2, clock=lambda: clock[0])
            statuses = []
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="repro"):
                for gap, latency, fail in zip(gaps, latencies, failed):
                    clock[0] += float(gap)
                    dog.observe(float(latency), failed=bool(fail))
                    statuses.append(dog.status())
            logged = [
                (r.levelno, r.getMessage()) for r in caplog.records
                if r.name == "repro.obs.slo"
            ]
            return statuses, logged

        statuses, logged = replay(SLOWatchdog)
        assert (statuses, logged) == replay(Resorting)
        assert statuses[-1]["alerts"] >= 3 and statuses[-1]["recoveries"] >= 3
        assert {s["window"]["samples"] for s in statuses} >= {1, 50}

    def test_min_samples_suppresses_flapping(self):
        dog = SLOWatchdog(0.1, None)
        for _ in range(MIN_SAMPLES - 1):
            dog.observe(9.9)
        assert not dog.degraded  # not enough evidence yet
        dog.observe(9.9)
        assert dog.degraded


# ----------------------------------------------------------------------
# the stats dashboard (repro query --stats)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_stats(tmp_path_factory):
    """The ``stats`` payload of a socket-less server whose state was fed:
    queries, latencies breaching a 10 ms p95 SLO, two failures breaching
    a 20% error-rate SLO, planner errors, daemon health, one history
    report and two datasets."""
    history = tmp_path_factory.mktemp("stats") / "history.jsonl"
    server = JoinServer(ServerConfig(
        history_path=str(history), metrics_port=None,
        slo_p95_seconds=0.01, slo_error_rate=0.2,
    ))
    reg = server.registry
    server.datasets.register_spec("R", "R1", base_n=100)
    server.datasets.register_spec("S", "S1", base_n=100)
    reg.counter("serve.queries").inc(10)
    reg.counter("serve.queries_failed").inc(2)
    reg.counter("serve.errors").inc(2)
    for latency in (0.008, 0.01, 0.05):
        reg.histogram("serve.query_seconds").observe(latency)
        server.slo.observe(latency)
    for _ in range(2):  # 2 of 5 failed: the window holds MIN_SAMPLES
        server.slo.observe(0.05, failed=True)
    for phase in ("build", "join"):
        reg.histogram(
            f"serve.plan_abs_rel_error.{phase}", ERROR_RATIO_BUCKETS
        ).observe(0.15)
    server.history.append_report(_report())
    server.history.flush()
    payload = {"ok": True, **server.snapshot()}
    server.history.close()
    return json.loads(json.dumps(payload))  # what a client receives


class TestRenderStats:
    def test_all_sections_render(self, served_stats):
        text = render_stats(served_stats)
        assert f"pid {os.getpid()}" in text and "backend=serial" in text
        for section in ("queries", "latency", "caches", "admission",
                        "plan err", "slo", "history", "datasets"):
            assert section in text, f"missing section {section!r}"
        assert "R, S" in text
        assert "! p95" in text  # the SLO violation detail lines
        assert "! error-rate" in text
        assert "n=3" in text and "ms" in text  # latency formatting

    def test_degrades_gracefully_on_minimal_payload(self):
        """A fresh server with history, SLO and endpoint off renders
        no row for them (nor for latency, datasets or planner error)."""
        text = render_stats({"ok": True, **JoinServer(ServerConfig()).snapshot()})
        assert f"pid {os.getpid()}" in text
        assert "healthy" in text
        for section in ("slo", "history", "metrics", "latency", "datasets",
                        "plan err", "cluster", "pools"):
            assert section not in text, f"unexpected section {section!r}"

    def test_degraded_flag_flips_the_header(self, served_stats):
        assert "healthy" in render_stats({**served_stats, "degraded": False})
        assert "DEGRADED" in render_stats({**served_stats, "degraded": True})


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
        run_ids = [e["run_id"] for e in reader.entries()]
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
                slo_error_rate=0.75,
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
            assert stats["slo"]["window_seconds"] == WINDOW_SECONDS == 300.0
            assert stats["slo"]["thresholds"] == {
                "p95_seconds": 30.0, "error_rate": 0.75, "min_samples": MIN_SAMPLES,
            }
            assert MIN_SAMPLES == 5
            assert stats["history"]["appended"] == 1
            assert stats["history"]["path"] == history_path
            assert stats["metrics_endpoint"].startswith("http://127.0.0.1:")
            assert set(stats["planner_errors"]) == {
                "build", "assign", "shuffle", "join", "total"
            }
            assert "cluster" not in stats
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
            )
        )
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                _register(c)
                for _ in range(MIN_SAMPLES - 1):
                    c.query("R", "S", eps=EPS)
                assert c.stats()["degraded"] is False  # too few samples yet
                c.query("R", "S", eps=EPS)
                stats = c.stats()
            assert stats["degraded"] is True
            assert stats["slo"]["degraded"] is True
            assert stats["slo"]["alerts"] == 1
            assert stats["slo"]["violations"]
        finally:
            handle.stop()

    def test_metrics_samples_equal_the_stats_they_render(self, tmp_path):
        """Each counter and gauge sample of one scrape equals the value at
        its table path in a ``stats`` call taken straight after."""
        handle = start_in_thread(ServerConfig(
            backend="serial", history_path=str(tmp_path / "h.jsonl"),
            metrics_port=0, slo_p95_seconds=30.0,
        ))
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                _register(c)
                c.query("R", "S", eps=EPS)
                c.query("R", "S", eps=EPS)  # a result-cache hit
                with pytest.raises(ServerError):
                    c.query("R", "missing", eps=EPS)
                endpoint = c.stats()["metrics_endpoint"]
                with urllib.request.urlopen(endpoint, timeout=10) as resp:
                    families = _parse_prometheus(resp.read().decode("utf-8"))
                stats = c.stats()
        finally:
            handle.stop()
        for family in METRIC_FAMILIES:
            if family.kind == "histogram":
                continue
            samples = families[family.name]["samples"]
            assert samples, f"{family.name} rendered no sample"
            for key, value in samples.items():
                labels = dict(re.findall(r'(\w+)="([^"]*)"', key))
                if isinstance(family.path, dict):  # info family
                    assert labels == {
                        label: str(stats[path])
                        for label, path in family.path.items()
                    }
                    continue
                expected = stats
                for part in family.path.format(**labels).split("."):
                    expected = expected[part]
                if isinstance(expected, list):
                    expected = len(expected)
                if family.name == "repro_server_uptime_seconds":
                    assert value <= expected  # the stats call came later
                else:
                    assert value == float(expected), key

    def test_one_scrape_reads_one_snapshot(self, monkeypatch):
        handle = start_in_thread(ServerConfig(backend="serial", metrics_port=0))
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                endpoint = c.stats()["metrics_endpoint"]
            calls = []
            snapshot = handle.server.snapshot
            monkeypatch.setattr(
                handle.server, "snapshot",
                lambda: calls.append(1) or snapshot(),
            )
            with urllib.request.urlopen(endpoint, timeout=10) as resp:
                assert resp.status == 200
            assert len(calls) == 1
        finally:
            handle.stop()

    def test_metrics_answers_500_when_the_snapshot_raises(
        self, monkeypatch, caplog
    ):
        handle = start_in_thread(ServerConfig(backend="serial", metrics_port=0))
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                endpoint = c.stats()["metrics_endpoint"]

            def broken():
                raise RuntimeError("state unreadable")

            with monkeypatch.context() as patch:
                patch.setattr(handle.server, "snapshot", broken)
                with caplog.at_level(logging.ERROR, logger="repro"):
                    with pytest.raises(urllib.error.HTTPError) as failed:
                        urllib.request.urlopen(endpoint, timeout=10)
                assert failed.value.code == 500
                assert failed.value.read().decode() == "RuntimeError\n"
                assert [
                    r.getMessage() for r in caplog.records
                    if r.name == "repro.obs.exporter"
                ] == ["metrics render failed"]
            with urllib.request.urlopen(endpoint, timeout=10) as resp:
                assert resp.status == 200  # the next scrape renders afresh
        finally:
            handle.stop()

    def test_stats_frame_renders_a_live_server(self):
        handle = start_in_thread(ServerConfig(backend="serial", metrics_port=0))
        try:
            with JoinClient(socket_path=handle.socket_path) as c:
                _register(c)
                c.query("R", "S", eps=EPS)
                text = render_stats(c.stats())
            assert f"pid {os.getpid()}" in text
            assert "backend=serial" in text
            assert "queries    total 1" in text
            assert "latency" in text and "caches" in text
            assert "datasets   R, S" in text
            assert "metrics    http://127.0.0.1:" in text
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
                slo_error_rate=0.75,
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
            "--quiet",
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

    dog = SLOWatchdog(30.0, None)
    observe_cost = timeit.timeit(
        lambda: dog.observe(0.01), number=5_000
    ) / 5_000

    per_query = append_cost + observe_cost
    assert per_query < 0.02 * query_wall, (
        f"obs would cost {per_query * 1e3:.3f}ms of a "
        f"{query_wall * 1e3:.1f}ms query ({per_query / query_wall:.2%})"
    )
