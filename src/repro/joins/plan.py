"""Physical plans: a driver's config plus the stage list it runs.

A :class:`PhysicalPlan` is the driver config (for the object join also
the data-dependent ``eps`` / ``eps_eff``) tagged with its join kind.
Its stages are the driver's own literal stage list --
:func:`~repro.joins.distance_join.distance_stages`,
:func:`~repro.joins.object_join.object_stages`,
:func:`~repro.joins.generalized_join.generalized_stages` -- so a plan
can never describe a run other than the one its config makes.  The
datasets travel separately in a :class:`PlanInputs` bundle, bound at
:meth:`PhysicalPlan.stages` time.

:meth:`PhysicalPlan.render` prints the choices, then one ``name (phase)``
line per stage: the names the run's ``stage`` spans and
``JoinMetrics.stage_times`` carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "PlanInputs",
    "PhysicalPlan",
    "distance_plan",
    "object_plan",
    "generalized_plan",
]


@dataclass(frozen=True)
class PlanInputs:
    """The run-time data a plan is bound to when building its stages.

    Point drivers read ``r``/``s`` (PointSets); the object driver reads
    ObjectSets plus the exact ``predicate``.
    """

    r: Any = None
    s: Any = None
    predicate: Callable[..., bool] | None = None


@dataclass(frozen=True)
class PhysicalPlan:
    """One join kind (``distance``, ``object``, ``generalized``), its
    config, and for objects the MBR-filter ``eps`` and anchor ``eps_eff``."""

    join_kind: str
    config: Any
    eps: float | None = None
    eps_eff: float | None = None

    def stages(self, inputs: PlanInputs) -> list:
        """The driver's stage list, bound to ``inputs``: fresh stages."""
        # function-level imports: distance_join imports this module, and a
        # distance join should not load the object or generalized driver
        if self.join_kind == "distance":
            from repro.joins.distance_join import distance_stages

            return distance_stages(self.config, inputs.r, inputs.s)
        if self.join_kind == "object":
            from repro.joins.object_join import object_stages

            return object_stages(
                inputs.r, inputs.s, self.eps, self.eps_eff, inputs.predicate
            )
        from repro.joins.generalized_join import generalized_stages

        return generalized_stages(self.config, inputs.r, inputs.s)

    def choices(self) -> dict[str, Any]:
        """The plan-level decision dimensions, read off the config."""
        cfg = self.config
        out: dict[str, Any] = {"method": cfg.method}
        if self.join_kind == "distance":
            out["resolution_factor"] = cfg.resolution_factor
        if self.join_kind == "generalized":
            out["partition"] = cfg.partition
        out["kernel"] = getattr(cfg, "local_kernel", "plane_sweep")
        out["backend"] = cfg.execution_backend
        out["workers"] = cfg.num_workers
        out["eps"] = cfg.eps if self.eps is None else self.eps
        return out

    def render(self) -> str:
        """The choices, then one ``name (phase)`` line per stage."""
        choices = " ".join(f"{k}={v}" for k, v in self.choices().items())
        lines = [f"physical plan [{self.join_kind}] {choices}"]
        for stage in self.stages(PlanInputs()):
            lines.append(f"  {stage.name} ({stage.phase})")
        return "\n".join(lines)


def distance_plan(cfg: Any) -> PhysicalPlan:
    """The point distance-join plan for a ``JoinConfig``."""
    return PhysicalPlan("distance", cfg)


def object_plan(cfg: Any, eps: float, eps_eff: float) -> PhysicalPlan:
    """The object-join plan; ``eps_eff`` is ``eps`` plus both inputs'
    max object radii, so it is known only once the data is."""
    return PhysicalPlan("object", cfg, eps, eps_eff)


def generalized_plan(cfg: Any) -> PhysicalPlan:
    """The generalized (rectangulation + ownership) join plan."""
    return PhysicalPlan("generalized", cfg)
