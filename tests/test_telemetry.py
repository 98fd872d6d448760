"""Telemetry subsystem tests: spans, registry, logging, reports, and the
instrumented pipeline.

The observability contracts under test:

- span trees are well-formed (one root, no orphans, children inside
  parents) for every kernel x backend combination;
- the *set* of spans is backend-independent: a processes run records the
  same (cat, name, worker, attempt) spans as a serial run, pickled
  child-side spans included;
- chaos runs surface the triggering exception on their recovery spans
  (no more silent failures) and salvage runs record what they salvaged;
- telemetry never changes the answer: results and metrics of a traced
  run are bit-identical to an untraced one;
- the disabled tracer is cheap enough to leave compiled in everywhere
  (the perfsmoke guard at the bottom).
"""

import json
import logging

import numpy as np
import pytest

from repro.data.generators import gaussian_clusters
from repro.engine.telemetry import (
    LOG_LEVELS,
    MetricsRegistry,
    RunReport,
    Telemetry,
    Tracer,
    configure,
    get_logger,
    span_children,
    validate_span_tree,
    write_trace,
)
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.local import LOCAL_KERNELS

EPS = 0.02
KERNELS = sorted(LOCAL_KERNELS)
BACKENDS = ("serial", "threads", "processes")

#: Stage spans every traced distance join must contain, in pipeline order.
DISTANCE_STAGES = (
    "build_partition", "assign", "shuffle", "shuffle_recovery",
    "origins", "local_join", "collect", "join_accounting",
)


def small_inputs():
    return (
        gaussian_clusters(420, seed=51, name="R"),
        gaussian_clusters(380, seed=52, name="S"),
    )


def traced_join(backend="serial", kernel="plane_sweep", **overrides):
    """A traced small distance join; returns (result, telemetry)."""
    telemetry = Telemetry.create()
    r, s = small_inputs()
    cfg = JoinConfig(
        eps=EPS,
        method="lpib",
        num_workers=3,
        local_kernel=kernel,
        execution_backend=backend,
        executor_workers=2,
        telemetry=telemetry,
        **overrides,
    )
    return distance_join(r, s, cfg), telemetry


def span_key(span):
    """Backend-independent identity of a span."""
    return (span.cat, span.name, span.worker, span.attrs.get("attempt"))


# ----------------------------------------------------------------------
# tracer unit tests
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_attributes(self):
        tracer = Tracer(enabled=True)
        with tracer.span("job", cat="job") as job:
            with tracer.span("stage", cat="stage", phase="join") as stage:
                tracer.event("tick", cat="recovery", worker=3, n=7)
        spans = tracer.spans()
        assert [s.name for s in spans] == ["job", "stage", "tick"]
        job_s, stage_s, tick = spans
        assert stage_s.parent_id == job_s.span_id
        assert tick.parent_id == stage_s.span_id
        assert tick.kind == "event"
        assert tick.worker == 3 and tick.attrs["n"] == 7
        assert stage_s.attrs["phase"] == "join"
        validate_span_tree(spans)
        children = span_children(spans)
        assert [c.name for c in children[job_s.span_id]] == ["stage"]
        assert [c.name for c in children[None]] == ["job"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("job", cat="job"):
            tracer.event("tick", cat="recovery")
        begun = tracer.begin("task", cat="task")
        tracer.end(begun)
        assert len(tracer) == 0
        assert tracer.spans() == []

    def test_begin_without_end_is_dropped(self):
        tracer = Tracer(enabled=True)
        span = tracer.begin("task", cat="task", worker=0)
        assert tracer.spans() == []  # unfinished spans never export
        tracer.end(span)
        assert [s.name for s in tracer.spans()] == ["task"]

    def test_export_merge_roundtrip(self):
        parent = Tracer(enabled=True, run_id="shared")
        child = Tracer(enabled=True, run_id="shared")
        with parent.span("job", cat="job") as job:
            with child.span("task_run", cat="task", worker=1):
                pass
            payload = child.export_payload()
            parent.merge(payload)
        names = {s.name for s in parent.spans()}
        assert names == {"job", "task_run"}
        parent.merge(None)  # a lost child ships nothing; a no-op
        assert len(parent) == 2

    def test_span_ids_unique_across_processes(self):
        # ids embed the recording pid, so merged child spans can't collide
        tracer = Tracer(enabled=True)
        a = tracer.begin("x", cat="task")
        b = tracer.begin("y", cat="task")
        assert a.span_id != b.span_id
        assert a.span_id.split(".")[0] == b.span_id.split(".")[0]

    def test_validate_rejects_orphans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("job", cat="job"):
            pass
        spans = tracer.spans()
        orphan = spans[0].__class__(
            name="ghost", span_id="dead.1", parent_id="no.such.parent",
            cat="task", start=spans[0].start, end=spans[0].end,
        )
        with pytest.raises(ValueError, match="orphan"):
            validate_span_tree(spans + [orphan])


class TestTraceFiles:
    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer(enabled=True, run_id="abc123")
        with tracer.span("job", cat="job"):
            tracer.event("tick", cat="recovery", worker=2)
        path = tmp_path / "trace.jsonl"
        write_trace(tracer.spans(), str(path), fmt="jsonl", run_id="abc123")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {"type": "run", "run_id": "abc123"}
        spans = [l for l in lines[1:] if l["type"] == "span"]
        assert {s["name"] for s in spans} == {"job", "tick"}
        assert all("span_id" in s and "start" in s for s in spans)

    def test_chrome_format(self, tmp_path):
        tracer = Tracer(enabled=True, run_id="abc123")
        with tracer.span("job", cat="job"):
            tracer.event("tick", cat="recovery", worker=2)
        path = tmp_path / "trace.json"
        write_trace(tracer.spans(), str(path), fmt="chrome", run_id="abc123")
        doc = json.loads(path.read_text())
        assert doc["metadata"]["run_id"] == "abc123"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i"}  # complete spans + instant events
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in complete)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_trace([], str(tmp_path / "x"), fmt="xml")


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        assert reg.value("c") == 3
        assert isinstance(reg.value("c"), int)  # int increments stay int
        assert reg.gauge("g").set(1.5) == 1.5  # set returns value as given
        h = reg.histogram("h")
        for v in (0.001, 0.002, 0.004, 10.0):
            h.observe(v)
        snap = reg.snapshot()["metrics"]["h"]
        assert snap["count"] == 4
        assert snap["max"] == 10.0
        assert 0.0005 < snap["p50"] < 0.01

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_meta_side_table(self):
        reg = MetricsRegistry()
        reg.set_meta("job", {"method": "lpib"})
        assert reg.get_meta("job")["method"] == "lpib"
        assert reg.get_meta("missing") is None
        assert reg.get_meta("missing", {}) == {}


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_logger_carries_run_id(self):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        root = logging.getLogger("repro")
        handler = Capture()
        root.addHandler(handler)
        try:
            get_logger("repro.test", "run42").warning("hello %s", "world")
        finally:
            root.removeHandler(handler)
        assert records and records[0].run_id == "run42"
        assert records[0].getMessage() == "hello world"

    def test_configure_is_idempotent(self):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        level, propagate = root.level, root.propagate
        try:
            configure("warning")
            configure("debug")
            added = [h for h in root.handlers if h not in before]
            assert len(added) == 1
            assert root.level == logging.DEBUG
            configure("quiet")
            assert root.level >= logging.CRITICAL
        finally:
            for h in list(root.handlers):
                if h not in before:
                    root.removeHandler(h)
            root.setLevel(level)
            root.propagate = propagate

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            configure("verbose")
        assert "quiet" in LOG_LEVELS


# ----------------------------------------------------------------------
# instrumented pipeline: span trees, backend equivalence, stage lint
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_span_tree_well_formed_matrix(kernel, backend):
    res, telemetry = traced_join(backend=backend, kernel=kernel)
    assert len(res) > 0
    spans = telemetry.tracer.spans()
    validate_span_tree(spans)
    jobs = [s for s in spans if s.cat == "job"]
    assert len(jobs) == 1
    stage_names = [s.name for s in spans if s.cat == "stage"]
    assert tuple(stage_names) == DISTANCE_STAGES
    # every task attempt hangs off the local_join stage
    local = next(s for s in spans if s.name == "local_join")
    tasks = [s for s in spans if s.name == "task"]
    assert tasks and all(t.parent_id == local.span_id for t in tasks)
    # and every successful attempt has an inner execution span
    runs = [s for s in spans if s.name == "task_run"]
    assert {r.parent_id for r in runs} <= {t.span_id for t in tasks}


def test_every_registered_stage_emits_exactly_one_span(monkeypatch):
    """Lint: the stage list the driver registers IS the stage span list."""
    import importlib

    from repro.joins.pipeline import run_staged_join

    # the package re-exports the driver *function* under the same name,
    # so fetch the module itself
    dj = importlib.import_module("repro.joins.distance_join")

    registered = []

    def spy(stages, ctx):
        registered.extend(s.name for s in stages)
        return run_staged_join(stages, ctx)

    monkeypatch.setattr(dj, "run_staged_join", spy)
    _res, telemetry = traced_join(duplicate_free=False)
    stage_spans = [
        s.name for s in telemetry.tracer.spans() if s.cat == "stage"
    ]
    assert registered, "the spy never saw the stage list"
    assert stage_spans == registered  # one span per stage, in order
    assert "distinct" in stage_spans  # the dedup variant is covered too


def test_build_partition_decomposes_into_construction_spans():
    """Construction is visible step by step, not lumped into its stage."""
    from repro.serving import ArtifactCache

    _res, telemetry = traced_join(
        artifact_cache=ArtifactCache(1 << 26), artifact_key=("spans",)
    )
    spans = telemetry.tracer.spans()
    stage = next(s for s in spans if s.name == "build_partition")
    children = [s for s in spans if s.parent_id == stage.span_id]
    assert [s.name for s in children] == [
        "construction.sample_stats",
        "construction.agreements",
        "construction.marking",
        "construction.tables",
        "construction.lpt",
        "artifact_cache.put",
    ]
    assert {s.cat for s in children} == {"construction"}
    assert sum(s.duration for s in children) <= stage.duration
    # a one-shot run has no cache to put into
    _res, plain = traced_join()
    assert "artifact_cache.put" not in {s.name for s in plain.tracer.spans()}


def test_serial_and_processes_record_the_same_span_set():
    _res_a, tel_a = traced_join(backend="serial")
    _res_b, tel_b = traced_join(backend="processes")
    keys_a = sorted(map(span_key, tel_a.tracer.spans()))
    keys_b = sorted(map(span_key, tel_b.tracer.spans()))
    assert keys_a == keys_b


def test_telemetry_does_not_change_the_answer():
    r, s = small_inputs()
    cfg = JoinConfig(eps=EPS, method="lpib", num_workers=3)
    plain = distance_join(r, s, cfg)
    traced, telemetry = traced_join()
    assert np.array_equal(plain.r_ids, traced.r_ids)
    assert np.array_equal(plain.s_ids, traced.s_ids)
    # the registry is a view over the metrics, not a rounding of them
    m = traced.metrics
    assert telemetry.registry.value("join.shuffle_bytes") == m.shuffle_bytes
    assert telemetry.registry.value("join.results") == m.results
    assert (
        telemetry.registry.value("join.join_time_model") == m.join_time_model
    )


def test_shuffle_matrix_totals_match_accounting():
    res, telemetry = traced_join()
    matrix = np.asarray(telemetry.registry.get_meta("shuffle.matrix"))
    assert matrix.shape == (3, 3)
    assert matrix.sum() == res.metrics.shuffle_bytes
    off_diagonal = matrix.sum() - np.trace(matrix)
    assert off_diagonal == res.metrics.remote_bytes


# ----------------------------------------------------------------------
# chaos: recovery spans carry the triggering exception
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize("backend", BACKENDS)
def test_kill_faults_surface_exception_on_recovery_spans(backend):
    res, telemetry = traced_join(
        backend=backend, faults="kill:p=1:times=1", max_retries=3,
    )
    assert res.metrics.task_retries > 0
    spans = telemetry.tracer.spans()
    validate_span_tree(spans)
    failures = [s for s in spans if s.name == "task_failure"]
    assert failures, "retried attempts must leave task_failure events"
    # a killed process pool child surfaces as BrokenProcessPool (the
    # interpreter really died); in-process backends see the injected type
    expected = {"InjectedWorkerKill", "BrokenProcessPool"}
    for event in failures:
        assert event.cat == "recovery"
        assert event.attrs["error_type"] in expected
        assert event.worker is not None
    assert any(e.attrs["error_message"] for e in failures)
    # the failure log is also published for the run report
    published = telemetry.registry.get_meta("executor.failures")
    assert published and all(f["error_type"] in expected for f in published)
    # failed attempts keep their scheduler-side task span, annotated
    failed_tasks = [
        s for s in spans
        if s.name == "task" and "error_type" in s.attrs
    ]
    assert len(failed_tasks) == len(failures)


@pytest.mark.chaos
def test_salvage_spans_record_salvaged_cells(tmp_path):
    res, telemetry = traced_join(
        faults="kill:p=1:times=1", max_retries=3,
        spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
    )
    m = res.metrics
    assert m.cells_salvaged > 0
    spans = telemetry.tracer.spans()
    salvages = [s for s in spans if s.name == "checkpoint_salvage"]
    assert salvages
    assert sum(s.attrs["cells"] for s in salvages) == m.cells_salvaged
    assert all(s.cat == "salvage" for s in salvages)
    spills = [s for s in spans if s.name == "block_spill"]
    assert len(spills) == m.blocks_spilled
    assert all(s.attrs["bytes"] > 0 for s in spills)


# ----------------------------------------------------------------------
# run report
# ----------------------------------------------------------------------
class TestRunReport:
    def test_sections_of_a_clean_run(self):
        res, telemetry = traced_join()
        report = telemetry.report()
        doc = report.to_json()
        assert doc["header"]["results"] == res.metrics.results
        assert [r["stage"] for r in doc["stages"]] == list(DISTANCE_STAGES)
        assert len(doc["workers"]) == 3
        assert doc["recovery"] == []
        assert len(doc["shuffle_matrix"]) == 3
        text = report.render()
        for needle in ("stages", "workers", "shuffle bytes", "metrics"):
            assert needle in text
        json.loads(report.render_json())  # machine-readable twin parses

    def test_stage_rows_carry_page_faults_and_system_time(self):
        """Wall time cannot say "zeroing pages": every stage row, its span
        and ``metrics.extra`` carry the stage's minor faults and system
        seconds, and an untraced run still gets the ``extra`` keys."""
        res, telemetry = traced_join()
        rows = telemetry.report().to_json()["stages"]
        for row in rows:
            assert isinstance(row["minflt"], int) and row["minflt"] >= 0
            assert row["sys_s"] >= 0.0
            assert res.metrics.extra[f"minflt.{row['stage']}"] == row["minflt"]
            assert res.metrics.extra[f"sys_s.{row['stage']}"] == row["sys_s"]
        r, s = small_inputs()
        untraced = distance_join(r, s, JoinConfig(eps=EPS, num_workers=3))
        assert {f"minflt.{name}" for name in DISTANCE_STAGES} <= set(untraced.metrics.extra)

    def test_recovery_timeline_names_the_exception(self):
        _res, telemetry = traced_join(
            faults="kill:p=1:times=1", max_retries=3,
        )
        report = telemetry.report()
        timeline = report.recovery_timeline()
        assert any(
            row["event"] == "task_failure"
            and row["error_type"] == "InjectedWorkerKill"
            for row in timeline
        )
        text = report.render()
        assert "recovery timeline" in text
        assert "InjectedWorkerKill" in text

    def test_empty_report_renders(self):
        report = RunReport([], MetricsRegistry(), run_id="empty")
        assert "empty" in report.render()
        assert report.to_json()["stages"] == []


# ----------------------------------------------------------------------
# spill-dir fallback warning (no more silent relocation)
# ----------------------------------------------------------------------
def test_unusable_spill_dir_warns_and_falls_back(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a file where the spill dir should go")
    records = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    root = logging.getLogger("repro")
    handler = Capture()
    root.addHandler(handler)
    level = root.level
    root.setLevel(logging.WARNING)
    try:
        res, _tel = traced_join(spill="disk", spill_dir=str(blocker))
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
    assert len(res) > 0  # the job still finishes, on the temp fallback
    warnings = [
        r for r in records
        if r.levelno >= logging.WARNING and "falling back" in r.getMessage()
    ]
    assert warnings, "the fallback must be announced"
    assert str(blocker) in warnings[0].getMessage()


# ----------------------------------------------------------------------
# perfsmoke: the disabled tracer must cost (almost) nothing
# ----------------------------------------------------------------------
@pytest.mark.perfsmoke
def test_disabled_tracer_overhead_under_two_percent():
    """Estimated per-run tracing cost with tracing off stays < 2%.

    Deliberately not a wall-clock A/B of two full joins (too noisy for
    CI): microbenchmark the disabled-path cost per telemetry call, count
    how many calls an instrumented run actually makes (the span count of
    an enabled run bounds it), and compare against the measured join
    wall of the bench-sized config.
    """
    import timeit

    res, telemetry = traced_join()
    call_sites = len(telemetry.tracer.spans()) + 8  # spans + epilogue meta
    join_wall = sum(res.metrics.wall_times.values())

    disabled = Tracer(enabled=False)

    def one_call():
        with disabled.span("task", cat="task", worker=0, attempt=0):
            pass

    n = 20_000
    per_call = timeit.timeit(one_call, number=n) / n
    estimated = per_call * call_sites
    assert estimated < 0.02 * join_wall, (
        f"disabled tracing would cost {estimated * 1e6:.1f}us of a "
        f"{join_wall * 1e3:.1f}ms join ({estimated / join_wall:.2%})"
    )
