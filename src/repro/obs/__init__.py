"""``repro.obs``: continuous observability on top of ``repro.engine.telemetry``.

PR 5's telemetry layer observes *one run*: a span tree, a metrics
registry, a RunReport.  This package observes the *system over time*:

* :class:`~repro.obs.history.RunHistory` -- an append-only,
  rotation-bounded JSONL store of RunReports keyed by run id.  The
  staged pipeline appends through ``ExecutionSettings.history`` and the
  join server appends per query; the accumulated reports replay through
  ``repro.planner.accuracy.replay_reports`` so planner clock-error
  drift is computable across runs (the ROADMAP's learned-optimizer
  training data).
* :func:`~repro.obs.exporter.render_metrics` -- Prometheus text exposition of
  one state snapshot through a declarative family table, with a
  metrics-name lint (``repro_`` prefix, snake_case, stable unit
  suffixes) run over the table, plus :class:`~repro.obs.exporter.PrometheusEndpoint`,
  a localhost asyncio HTTP scrape endpoint the join server mounts
  beside its line protocol.
* :class:`~repro.obs.slo.SLOWatchdog` -- rolling-window latency
  percentile tracking against configurable thresholds, emitting
  structured-log alerts on degradation and a ``degraded`` flag the
  server's ``stats`` op surfaces.
* :func:`~repro.obs.top.render_stats` -- a running server's stats
  (latency percentiles, cache hit rates, queue depth) as the text
  dashboard ``repro query --stats`` prints.

Layering: ``repro.obs`` sits directly above ``repro.engine.telemetry``
and below everything that composes it (pipeline via duck-typing,
serving, CLI); it imports nothing else from ``repro`` (enforced by
``tests/test_layering.py``).  Everything here is **off by default** and
never changes a join's answer; the enabled overhead is perfsmoke-guarded
under 2% and measured by ``benchmarks/bench_obs_overhead.py``.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "exporter": (
        "Family", "PrometheusEndpoint", "check_families", "render_metrics",
        "validate_metric_name",
    ),
    "history": ("RunHistory",),
    "slo": ("SLOWatchdog",),
    "top": ("render_stats",),
})
