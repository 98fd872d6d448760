"""Telemetry for the staged join pipeline: tracing, metrics, reports.

The subsystem is the *bottom* layer of the engine -- it imports nothing
from the rest of ``repro``, so the executor, shuffle layer, block store
and pipeline can all publish into it without import cycles (enforced by
``tests/test_layering.py``).

One join run owns one :class:`Telemetry` bundle: a span
:class:`~repro.engine.telemetry.spans.Tracer` plus a
:class:`~repro.engine.telemetry.registry.MetricsRegistry` sharing a run
id.  ``Telemetry.disabled()`` is the default everywhere -- the tracer
no-ops (one attribute check per call site) while the registry stays live
and the job epilogue publishes every `JoinMetrics` field into it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .report import RunReport
from .spans import (
    TRACE_FORMATS,
    Span,
    Tracer,
    new_run_id,
    validate_span_tree,
    write_trace,
)
from .tlog import LOG_LEVELS, configure, get_logger

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MetricsRegistry",
    "RunReport",
    "Span",
    "TRACE_FORMATS",
    "Telemetry",
    "Tracer",
    "configure",
    "get_logger",
    "new_run_id",
    "validate_span_tree",
    "write_trace",
]


@dataclass
class Telemetry:
    """One run's tracer + metrics registry under a shared run id."""

    tracer: Tracer
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def create(cls, enabled: bool = True, run_id: str | None = None) -> "Telemetry":
        return cls(tracer=Tracer(enabled=enabled, run_id=run_id))

    @classmethod
    def disabled(cls) -> "Telemetry":
        """Tracing off, metrics registry live (the library default)."""
        return cls.create(enabled=False)

    @property
    def run_id(self) -> str:
        return self.tracer.run_id

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def report(self) -> RunReport:
        return RunReport(self.tracer.spans(), self.registry, self.run_id)
