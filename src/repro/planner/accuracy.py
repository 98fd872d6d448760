"""Predicted-vs-measured clock accuracy for the cost-based planner.

The planner prices candidates on one of two clocks
(:data:`repro.core.cost_model.CLOCKS`) and this module scores the
prediction against the *same* clock's measurement -- like with like:

* **modelled** (plans for the ``threads``, ``processes`` and ``cluster``
  backends, the paper figures):
  the engine reports the measured *modelled* clocks -- the simulated
  cluster's makespans over the real data, not a sample.  Prediction
  ``construction_time`` <-> the ``shuffle`` stage's modelled makespan
  (grid build + replication + shuffle); ``join_time`` <-> the
  ``local_join`` stage's; their sum <-> ``JoinMetrics.exec_time_model``.
* **wall** (plans for the ``serial`` backend): the predicted seconds of
  each :data:`~repro.core.wall_model.WALL_PHASES` phase <-> the measured
  wall seconds of its stage (``build_partition``, ``assign``,
  ``shuffle``, ``local_join``); their sums against each other.

Both comparison directions are supported: live (a
:class:`~repro.engine.metrics.JoinMetrics` straight from a driver) and
recorded (a ``RunReport.to_json()`` dict replayed from disk, whose
``planner.predicted`` section names the clock it was priced on; a section
without a name predates the wall clock and replays as modelled).  The
relative errors are what the RunReport's planner section prints and what
the regression tests bound: on the serial backend the modelled
measurement is deterministic, so sampling noise is its only error source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.wall_model import WALL_STAGES

__all__ = [
    "ClockError",
    "clock_errors_from_metrics",
    "clock_errors_from_report",
    "replay_reports",
    "summarize_errors",
]

#: clock -> {prediction phase -> stage span carrying the measured clock}
PHASE_STAGES = {
    "modelled": {"construction": "shuffle", "join": "local_join"},
    "wall": WALL_STAGES,
}
#: clock -> the stage rows' field holding that clock's measurement
_MEASURED_FIELD = {"modelled": "modelled_seconds", "wall": "wall_seconds"}


@dataclass(frozen=True)
class ClockError:
    """One phase's predicted vs measured clock."""

    phase: str
    predicted: float
    measured: float

    @property
    def absolute_error(self) -> float:
        return self.predicted - self.measured

    @property
    def relative_error(self) -> float:
        """Signed relative error, predicted against measured.

        Positive means the planner over-estimated the phase.  A zero
        measurement with a non-zero prediction reports ``inf`` rather
        than hiding the miss.
        """
        if self.measured == 0.0:
            return 0.0 if self.predicted == 0.0 else math.inf
        return (self.predicted - self.measured) / self.measured

    def to_payload(self) -> dict:
        return {
            "phase": self.phase,
            "predicted": self.predicted,
            "measured": self.measured,
            "relative_error": self.relative_error,
        }


def _errors(
    clock: str, predicted: Mapping[str, Any], measured: Mapping[str, float]
) -> list[ClockError]:
    """Score each predicted phase whose stage was measured, then the total.

    Phases whose stage never ran (e.g. no ``local_join`` row) are skipped
    rather than scored against zero; the total needs every phase.
    """
    stages = PHASE_STAGES[clock]
    errors = [
        ClockError(phase, float(predicted[phase]), measured[stage])
        for phase, stage in stages.items()
        if phase in predicted and stage in measured
    ]
    if len(errors) == len(stages):
        errors.append(
            ClockError(
                "total",
                sum(e.predicted for e in errors),
                sum(e.measured for e in errors),
            )
        )
    return errors


def clock_errors_from_metrics(
    prediction: Any, metrics: Any, clock: str = "modelled"
) -> list[ClockError]:
    """Compare a :class:`CostPrediction` against live ``JoinMetrics``."""
    if clock == "wall":
        measured = metrics.stage_times
    else:
        measured = {
            "shuffle": float(metrics.construction_time_model),
            "local_join": float(metrics.join_time_model),
        }
    return _errors(clock, prediction.phases(clock), measured)


def _measured_from_stages(report: Mapping[str, Any], clock: str) -> dict[str, float]:
    """Pull one clock's per-stage measurement out of a report dict."""
    measured: dict[str, float] = {}
    for row in report.get("stages", ()):
        value = row.get(_MEASURED_FIELD[clock])
        if value is not None:
            measured[row["stage"]] = float(value)
    return measured


def clock_errors_from_report(
    prediction: Any, report: Mapping[str, Any], clock: str = "modelled"
) -> list[ClockError]:
    """Compare a :class:`CostPrediction` against a recorded report.

    ``report`` is a ``RunReport.to_json()`` dict (or a ``RunReport``
    itself).
    """
    if hasattr(report, "to_json"):
        report = report.to_json()
    return _errors(
        clock, prediction.phases(clock), _measured_from_stages(report, clock)
    )


def replay_reports(reports: Iterable[Mapping[str, Any]]) -> list[ClockError]:
    """Replay recorded reports that carry an embedded planner section.

    Each report dict is expected to be ``RunReport.to_json()`` output
    whose ``planner`` section holds the ``predicted`` clocks the planner
    stamped before execution: ``{"clock": name, <phase>: seconds, ...}``
    (``{"construction": s, "join": s}`` on the modelled clock, which is
    also what a section without a ``clock`` is read as).  Reports without
    a planner section (un-planned runs) are skipped.  Returns the flat
    list of clock errors across all replayed reports.
    """
    errors: list[ClockError] = []
    for report in reports:
        if hasattr(report, "to_json"):
            report = report.to_json()
        predicted = (report.get("planner") or {}).get("predicted") or {}
        if not predicted:
            continue
        clock = predicted.get("clock", "modelled")
        errors.extend(
            _errors(clock, predicted, _measured_from_stages(report, clock))
        )
    return errors


def summarize_errors(errors: Iterable[ClockError]) -> dict:
    """Aggregate clock errors into the numbers the tests bound.

    Returns overall and per-phase mean/max absolute relative error plus
    the signed mean (systematic bias).  Infinite errors (zero
    measurement, non-zero prediction) propagate into the maxima.
    """
    errors = list(errors)
    if not errors:
        return {"count": 0, "phases": {}, "max_abs_relative_error": 0.0}
    by_phase: dict[str, list[ClockError]] = {}
    for err in errors:
        by_phase.setdefault(err.phase, []).append(err)
    phases = {}
    for phase, errs in sorted(by_phase.items()):
        rels = [e.relative_error for e in errs]
        phases[phase] = {
            "count": len(errs),
            "mean_abs_relative_error": sum(abs(r) for r in rels) / len(rels),
            "max_abs_relative_error": max(abs(r) for r in rels),
            "mean_signed_relative_error": sum(rels) / len(rels),
        }
    all_rels = [e.relative_error for e in errors]
    return {
        "count": len(errors),
        "phases": phases,
        "mean_abs_relative_error": sum(abs(r) for r in all_rels) / len(all_rels),
        "max_abs_relative_error": max(abs(r) for r in all_rels),
    }
