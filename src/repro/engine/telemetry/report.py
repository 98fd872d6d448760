"""Spark-UI-style run report assembled from a run's trace and metrics.

A :class:`RunReport` is built after ``run_staged_join`` returns, from the
run's :class:`~repro.engine.telemetry.spans.Tracer` and
:class:`~repro.engine.telemetry.registry.MetricsRegistry` alone -- the
pipeline publishes everything the report needs (stage clocks, the
per-worker clock snapshot, the shuffle byte matrix, the task-failure
log) into spans and registry meta, so the report layer never imports the
pipeline.  ``render()`` gives a fixed-width text summary; ``to_json()``
the same data machine-readable.

Sections:

* **header** -- run id, join/kernel/backend, wall time, result count;
* **stages** -- per-stage wall seconds next to the modelled makespan the
  simulated cluster assigned to the matching phase;
* **workers** -- per-worker modelled busy seconds with a skew bar
  (max/mean ratio is the classic stragglers-at-a-glance number);
* **recovery** -- chronological retry/speculation/degradation/salvage
  timeline, each entry carrying the triggering exception type+message;
* **shuffle** -- the worker-to-worker shuffle byte matrix;
* **planner** -- when the run was cost-planned (``--tuning auto`` or the
  serving hook), the chosen plan choices and per-stage
  predicted-vs-measured modelled-clock error.
"""

from __future__ import annotations

from .registry import MetricsRegistry
from .spans import Span

__all__ = ["RunReport", "fmt_bytes"]

#: Span categories that make up the recovery timeline.
_RECOVERY_CATS = ("recovery", "salvage")


def _fmt_seconds(value: float) -> str:
    if value >= 100.0:
        return f"{value:9.1f}s"
    if value >= 0.1:
        return f"{value:9.3f}s"
    return f"{value * 1e3:8.2f}ms"


def fmt_bytes(value: float) -> str:
    """A byte count in B, KiB, MiB or GiB."""
    value = float(value)
    for unit in ("B", "KiB", "MiB"):
        if value < 1024:
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


class RunReport:
    """Aggregates one run's spans + metrics into text/JSON summaries."""

    def __init__(
        self,
        spans: list[Span],
        registry: MetricsRegistry,
        run_id: str = "",
    ):
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self.registry = registry
        self.run_id = run_id

    # ------------------------------------------------------------------
    # section builders (shared by render and to_json)
    # ------------------------------------------------------------------
    def _job_span(self) -> Span | None:
        for span in self.spans:
            if span.cat == "job":
                return span
        return None

    def header(self) -> dict:
        job = self._job_span()
        info = dict(self.registry.get_meta("job", {}) or {})
        out = {
            "run_id": self.run_id,
            "wall_seconds": job.duration if job else 0.0,
            "spans": len(self.spans),
        }
        out.update(info)
        if job:
            out.update(job.attrs)
        return out

    def stages(self) -> list[dict]:
        """Per-stage wall seconds vs the modelled makespan of its phase."""
        modelled = self.registry.get_meta("stage.modelled", {}) or {}
        rows = []
        for span in self.spans:
            if span.cat != "stage":
                continue
            row = {
                "stage": span.name,
                "wall_seconds": span.duration,
                "modelled_seconds": modelled.get(span.name),
            }
            row.update(span.attrs)
            rows.append(row)
        return rows

    def workers(self) -> list[dict]:
        """Per-worker modelled busy seconds (skew view)."""
        clocks = self.registry.get_meta("cluster.clocks", {}) or {}
        rows = []
        for worker in sorted(clocks):
            phases = clocks[worker]
            rows.append(
                {
                    "worker": worker,
                    "busy_seconds": float(sum(phases.values())),
                    "phases": {k: v for k, v in phases.items() if v},
                }
            )
        return rows

    def recovery_timeline(self) -> list[dict]:
        """Chronological retry/speculation/degradation/salvage events."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = []
        for span in self.spans:
            if span.cat not in _RECOVERY_CATS:
                continue
            row = {
                "at_seconds": span.start - t0,
                "event": span.name,
                "worker": span.worker,
            }
            row.update(span.attrs)
            rows.append(row)
        return rows

    def shuffle_matrix(self) -> list[list[int]] | None:
        matrix = self.registry.get_meta("shuffle.matrix")
        if matrix is None:
            return None
        return [[int(v) for v in row] for row in matrix]

    def planner(self) -> dict | None:
        """Planner verdict + predicted-vs-measured error, if planned.

        Populated from the ``planner`` registry meta the caller sets
        after a cost-planned run: the chosen choice dimensions, the
        predicted per-phase clocks, and -- once the run finished -- the
        measured modelled clocks with relative errors.
        """
        info = self.registry.get_meta("planner")
        if info is None:
            return None
        return dict(info)

    def counters(self) -> dict:
        """Scalar counters/gauges, flattened for quick scanning."""
        snap = self.registry.snapshot()["metrics"]
        out = {}
        for name, data in snap.items():
            if data["kind"] == "histogram":
                out[name] = {
                    "count": data["count"],
                    "mean": data["mean"],
                    "p50": data["p50"],
                    "p95": data["p95"],
                    "max": data["max"],
                }
            else:
                out[name] = data["value"]
        return out

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "header": self.header(),
            "stages": self.stages(),
            "workers": self.workers(),
            "recovery": self.recovery_timeline(),
            "shuffle_matrix": self.shuffle_matrix(),
            "planner": self.planner(),
            "metrics": self.counters(),
        }

    def render(self) -> str:
        lines: list[str] = []
        header = self.header()
        title = f"run {self.run_id or '?'}"
        for key in ("join", "kernel", "backend"):
            if key in header:
                title += f"  {key}={header[key]}"
        lines.append("=" * 72)
        lines.append(title)
        lines.append("=" * 72)
        lines.append(
            f"wall {header['wall_seconds']:.3f}s   "
            f"spans {header['spans']}   "
            + "   ".join(
                f"{k}={header[k]}"
                for k in ("results", "workers")
                if k in header
            )
        )

        stages = self.stages()
        if stages:
            lines.append("")
            lines.append("stages (wall vs modelled makespan)")
            lines.append("-" * 72)
            total = sum(r["wall_seconds"] for r in stages) or 1.0
            for row in stages:
                modelled = row.get("modelled_seconds")
                modelled_txt = (
                    _fmt_seconds(modelled) if modelled is not None else "        --"
                )
                lines.append(
                    f"  {row['stage']:<24}{_fmt_seconds(row['wall_seconds'])}  "
                    f"{modelled_txt}  {_bar(row['wall_seconds'] / total)}"
                )

        workers = self.workers()
        if workers:
            busy = [r["busy_seconds"] for r in workers]
            peak = max(busy) or 1.0
            mean = sum(busy) / len(busy)
            skew = (max(busy) / mean) if mean else 0.0
            lines.append("")
            lines.append(
                f"workers (modelled busy seconds; skew max/mean = {skew:.2f})"
            )
            lines.append("-" * 72)
            for row in workers:
                lines.append(
                    f"  w{row['worker']:<4}{_fmt_seconds(row['busy_seconds'])}  "
                    f"{_bar(row['busy_seconds'] / peak)}"
                )

        timeline = self.recovery_timeline()
        if timeline:
            lines.append("")
            lines.append("recovery timeline")
            lines.append("-" * 72)
            for row in timeline:
                extras = ", ".join(
                    f"{k}={v}"
                    for k, v in row.items()
                    if k not in ("at_seconds", "event", "worker") and v is not None
                )
                where = f" w{row['worker']}" if row["worker"] is not None else ""
                lines.append(
                    f"  +{row['at_seconds']:8.3f}s  {row['event']:<20}{where}"
                    + (f"  ({extras})" if extras else "")
                )

        matrix = self.shuffle_matrix()
        if matrix:
            lines.append("")
            lines.append("shuffle bytes (row=src worker, col=dst worker)")
            lines.append("-" * 72)
            width = len(matrix)
            head = "        " + "".join(f"{f'w{j}':>10}" for j in range(width))
            lines.append(head)
            for i, row in enumerate(matrix):
                cells = "".join(f"{fmt_bytes(v):>10}" for v in row)
                lines.append(f"  w{i:<4}{cells}")

        planner = self.planner()
        if planner:
            lines.append("")
            lines.append("planner")
            lines.append("-" * 72)
            chosen = planner.get("chosen") or {}
            if chosen:
                lines.append(
                    "  chosen: "
                    + "  ".join(f"{k}={chosen[k]}" for k in sorted(chosen))
                )
            errors = planner.get("errors") or {}
            for phase in sorted(errors):
                err = errors[phase]
                lines.append(
                    f"  {phase:<24}pred {err['predicted']:.4g}s  "
                    f"meas {err['measured']:.4g}s  "
                    f"err {err['relative_error'] * 100:+.1f}%"
                )
            for key, value in sorted(planner.items()):
                if key in ("chosen", "errors"):
                    continue
                lines.append(f"  {key:<24}{value}")

        metrics = self.counters()
        if metrics:
            lines.append("")
            lines.append("metrics")
            lines.append("-" * 72)
            for name, value in metrics.items():
                if isinstance(value, dict):
                    lines.append(
                        f"  {name:<36}n={value['count']} mean={value['mean']:.4g}s "
                        f"p50={value['p50']:.4g}s p95={value['p95']:.4g}s "
                        f"max={value['max']:.4g}s"
                    )
                else:
                    lines.append(f"  {name:<36}{value}")
        lines.append("=" * 72)
        return "\n".join(lines)
