"""Physical plans: a distance join's config plus the stage list it runs.

A :class:`PhysicalPlan` is the driver config of a distance join.  Its
stages are the driver's own literal stage list
(:func:`~repro.joins.distance_join.distance_stages`), so a plan can
never describe a run other than the one its config makes.  The datasets
travel separately in a :class:`PlanInputs` bundle, bound at
:meth:`PhysicalPlan.stages` time.  (The object and generalized drivers
run their stage lists directly; nothing plans them.)

:meth:`PhysicalPlan.render` prints the choices, then one ``name (phase)``
line per stage: the names the run's ``stage`` spans and
``JoinMetrics.stage_times`` carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["PlanInputs", "PhysicalPlan", "distance_plan"]


@dataclass(frozen=True)
class PlanInputs:
    """The run-time data a plan is bound to when building its stages:
    the two PointSets."""

    r: Any = None
    s: Any = None


@dataclass(frozen=True)
class PhysicalPlan:
    """A distance join's config, as the plan it runs."""

    config: Any

    def stages(self, inputs: PlanInputs) -> list:
        """The driver's stage list, bound to ``inputs``: fresh stages."""
        # a function-level import: distance_join imports this module
        from repro.joins.distance_join import distance_stages

        return distance_stages(self.config, inputs.r, inputs.s)

    def choices(self) -> dict[str, Any]:
        """The plan-level decision dimensions, read off the config."""
        cfg = self.config
        return {
            "method": cfg.method,
            "resolution_factor": cfg.resolution_factor,
            "kernel": cfg.local_kernel,
            "backend": cfg.execution_backend,
            "workers": cfg.num_workers,
            "eps": cfg.eps,
        }

    def render(self) -> str:
        """The choices, then one ``name (phase)`` line per stage."""
        choices = " ".join(f"{k}={v}" for k, v in self.choices().items())
        lines = [f"physical plan [distance] {choices}"]
        for stage in self.stages(PlanInputs()):
            lines.append(f"  {stage.name} ({stage.phase})")
        return "\n".join(lines)


def distance_plan(cfg: Any) -> PhysicalPlan:
    """The point distance-join plan for a ``JoinConfig``."""
    return PhysicalPlan(cfg)
