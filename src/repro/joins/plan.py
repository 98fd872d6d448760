"""First-class physical plans for the staged join drivers.

A **physical plan** is an inspectable, immutable description of the stage
composition a driver would otherwise assemble inline: a tree of
:class:`PlanNode` values whose root carries the run's decision dimensions
(agreement method, grid resolution, local kernel, execution backend,
worker count) and whose children each expand -- through
the :data:`STAGE_BUILDERS` registry -- to the exact
:class:`~repro.joins.pipeline.Stage` objects the driver runs.  A plan is
a plain value: it can be printed (:meth:`PhysicalPlan.render`), compared
and hashed (:meth:`PhysicalPlan.signature`), cached, shipped around, and
**replayed** by handing it back to the driver that built it.

The split from the datasets is deliberate: plans hold only small
hashable parameters, while the actual inputs (point sets, object sets,
file paths, refinement predicates) travel separately in a
:class:`PlanInputs` bundle and are bound at :meth:`PhysicalPlan.stages`
time.  That keeps plans cacheable by value while the data stays by
reference.

Equivalence contract: for every driver config, ``stages()`` of the plan
built from that config constructs the *same stage list, in the same
order, with the same constructor arguments* as the pre-plan inline
wiring -- the driver-golden tests pin this bit-for-bit (pairs, metrics
and repr'd modelled clocks).

Layering note: these dataclasses live in ``repro.joins`` so the drivers
can build plans without importing upward; :mod:`repro.planner.physical`
re-exports them as the public planning surface, and the cost-based
planner (:mod:`repro.planner.planner`) produces them from logical
:class:`~repro.planner.logical.JoinSpec` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "PlanNode",
    "PlanInputs",
    "PhysicalPlan",
    "STAGE_BUILDERS",
    "register_stage_builder",
    "distance_plan",
    "object_plan",
    "generalized_plan",
    "spark_style_plan",
]


def _freeze(value: Any) -> Any:
    """Recursively convert containers to hashable tuples."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class PlanNode:
    """One node of a physical plan: an operator name plus parameters.

    ``params`` is a sorted tuple of ``(key, value)`` pairs -- hashable,
    order-independent, and printable.  Leaf nodes name a stage builder
    in :data:`STAGE_BUILDERS`; the root's ``op`` is ``staged_join`` and
    its params carry the plan-level decision dimensions.
    """

    op: str
    params: tuple[tuple[str, Any], ...] = ()
    children: tuple["PlanNode", ...] = ()

    @staticmethod
    def make(op: str, children: tuple | list = (), **params: Any) -> "PlanNode":
        return PlanNode(
            op,
            tuple(sorted((k, _freeze(v)) for k, v in params.items())),
            tuple(children),
        )

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def signature(self) -> tuple:
        """A hashable value identifying this subtree exactly."""
        return (self.op, self.params, tuple(c.signature() for c in self.children))

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        args = ", ".join(f"{k}={v!r}" for k, v in self.params)
        lines = [f"{pad}{self.op}({args})"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class PlanInputs:
    """The run-time data a plan is bound to when building its stages.

    Only the fields the plan's join kind needs are consulted: point
    drivers read ``r``/``s`` (PointSets), the object driver reads
    ObjectSets plus the exact ``predicate``, and the spark-style driver
    reads the two input ``path_*`` strings.
    """

    r: Any = None
    s: Any = None
    predicate: Callable[..., bool] | None = None
    path_r: str | None = None
    path_s: str | None = None


#: plan operator name -> builder(node, inputs) -> list of Stage objects.
#: Every driver-reachable stage composition is constructible from a node
#: through this registry (the layering tests lint that no inline wiring
#: bypasses it).
STAGE_BUILDERS: dict[str, Callable[[PlanNode, PlanInputs], list]] = {}


def register_stage_builder(op: str):
    """Register the stage builder for plan operator ``op``."""

    def deco(fn: Callable[[PlanNode, PlanInputs], list]):
        STAGE_BUILDERS[op] = fn
        return fn

    return deco


@dataclass(frozen=True)
class PhysicalPlan:
    """An executable stage composition as a first-class value.

    ``join_kind`` is one of ``distance``, ``object``, ``generalized``,
    ``spark_style``; ``root`` is a ``staged_join`` node whose params are
    the plan's decision dimensions and whose children expand, in order,
    to the driver's stage list.
    """

    join_kind: str
    root: PlanNode

    def stages(self, inputs: PlanInputs) -> list:
        """Bind the plan to its inputs and build the stage list."""
        out: list = []
        for child in self.root.children:
            builder = STAGE_BUILDERS.get(child.op)
            if builder is None:
                raise ValueError(
                    f"no stage builder registered for plan op {child.op!r}"
                )
            out.extend(builder(child, inputs))
        return out

    def choices(self) -> dict[str, Any]:
        """The plan-level decision dimensions (the root's params)."""
        return self.root.param_dict()

    def signature(self) -> tuple:
        """Hashable identity: equal signatures mean equal stage lists."""
        return (self.join_kind, self.root.signature())

    def render(self) -> str:
        """A printable tree of the plan."""
        choices = ", ".join(f"{k}={v}" for k, v in self.root.params)
        lines = [f"physical plan [{self.join_kind}] {choices}"]
        for child in self.root.children:
            lines.append(child.render(1))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# stage builders
#
# Imports happen inside the builders: the driver modules import this
# module at load time, so importing them here at module scope would be
# circular.  Each builder constructs exactly what the pre-plan inline
# driver wiring constructed.
# ----------------------------------------------------------------------
@register_stage_builder("build_partition")
def _build_partition_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.distance_join import _BuildPartitionStage

    return [_BuildPartitionStage(inputs.r, inputs.s)]


@register_stage_builder("anchor_reduction")
def _anchor_reduction_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.object_join import _AnchorReductionStage

    return [_AnchorReductionStage(inputs.r, inputs.s, node.get("eps_eff"))]


@register_stage_builder("rectangulation")
def _rectangulation_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.generalized_join import _RectangulationStage

    return [_RectangulationStage(inputs.r, inputs.s)]


@register_stage_builder("assign_shuffle_join")
def _assign_shuffle_join_stages(node: PlanNode, inputs: PlanInputs) -> list:
    """assign -> shuffle -> shuffle_recovery [-> origins] -> local_join.

    The dataflow between these stages is columnar end to end: the
    shuffle hands its stable cell sort to the plan builder as a
    ``shuffle_layout`` (see :class:`~repro.joins.pipeline.ShuffleStage`).
    """
    from repro.joins.pipeline import (
        LocalJoinStage,
        ShuffleRecoveryStage,
        ShuffleStage,
    )

    assign = node.get("assign")
    if assign == "points":
        from repro.joins.distance_join import _AssignStage

        assign_stage: Any = _AssignStage(inputs.r, inputs.s)
    elif assign == "anchors":
        from repro.joins.object_join import _AnchorAssignStage

        assign_stage = _AnchorAssignStage(inputs.r, inputs.s)
    elif assign == "replication":
        from repro.joins.generalized_join import _ReplicationStage

        assign_stage = _ReplicationStage(inputs.r, inputs.s)
    else:
        raise ValueError(f"unknown assign flavour {assign!r}")
    stages = [assign_stage, ShuffleStage(), ShuffleRecoveryStage()]
    if node.get("origins"):
        from repro.joins.distance_join import _OriginsStage

        stages.append(_OriginsStage())
    stages.append(
        LocalJoinStage(node.get("kernel"), node.get("eps"), node.get("collect", True))
    )
    return stages


@register_stage_builder("exact_refine")
def _exact_refine_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.object_join import _ExactRefineStage

    return [_ExactRefineStage(inputs.r, inputs.s, node.get("eps"), inputs.predicate)]


@register_stage_builder("ownership")
def _ownership_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.generalized_join import _OwnershipStage

    return [_OwnershipStage(inputs.r, inputs.s)]


@register_stage_builder("collect_pairs")
def _collect_pairs_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.pipeline import CollectPairsStage

    return [CollectPairsStage()]


@register_stage_builder("accounting")
def _accounting_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.pipeline import JoinAccountingStage

    return [JoinAccountingStage()]


@register_stage_builder("distinct")
def _distinct_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.pipeline import DistinctStage

    return [DistinctStage(node.get("partitions"))]


@register_stage_builder("text_file")
def _text_file_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.spark_style import _TextFileStage

    return [_TextFileStage(inputs.path_r, inputs.path_s)]


@register_stage_builder("sample")
def _sample_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.spark_style import _SampleStage

    return [_SampleStage()]


@register_stage_builder("broadcast_build")
def _broadcast_build_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.spark_style import _BroadcastBuildStage

    return [_BroadcastBuildStage()]


@register_stage_builder("flat_map_to_pair")
def _flat_map_to_pair_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.spark_style import _FlatMapToPairStage

    return [_FlatMapToPairStage()]


@register_stage_builder("rdd_join")
def _rdd_join_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.spark_style import _RDDJoinStage

    return [_RDDJoinStage()]


@register_stage_builder("rdd_distinct")
def _rdd_distinct_stage(node: PlanNode, inputs: PlanInputs) -> list:
    from repro.joins.spark_style import _RDDDistinctStage

    return [_RDDDistinctStage()]


# ----------------------------------------------------------------------
# per-driver plan constructors
# ----------------------------------------------------------------------
def distance_plan(cfg: Any) -> "PhysicalPlan":
    """The point distance-join plan for a ``JoinConfig``."""
    children = [
        PlanNode.make(
            "build_partition",
            method=cfg.method,
            cell_assignment=cfg.cell_assignment,
            resolution_factor=cfg.resolution_factor,
            sample_rate=cfg.sample_rate,
        ),
        PlanNode.make(
            "assign_shuffle_join",
            assign="points",
            kernel=cfg.local_kernel,
            eps=cfg.eps,
            origins=True,
            collect=cfg.collect_pairs,
        ),
        PlanNode.make("collect_pairs"),
        PlanNode.make("accounting"),
    ]
    if not cfg.duplicate_free:
        children.append(
            PlanNode.make("distinct", partitions=cfg.resolved_partitions())
        )
    root = PlanNode.make(
        "staged_join",
        children=children,
        method=cfg.method,
        resolution_factor=cfg.resolution_factor,
        kernel=cfg.local_kernel,
        backend=cfg.execution_backend,
        workers=cfg.num_workers,
        eps=cfg.eps,
    )
    return PhysicalPlan("distance", root)


def object_plan(cfg: Any, eps: float, eps_eff: float) -> "PhysicalPlan":
    """The object-join plan: anchor reduction + sweep + exact refine.

    ``eps_eff`` is data-dependent (``eps`` plus both inputs' max object
    radii), so the driver computes it before building the plan; the
    refinement predicate stays out of the plan and binds via
    :class:`PlanInputs`.
    """
    children = [
        PlanNode.make("anchor_reduction", eps_eff=eps_eff),
        PlanNode.make(
            "assign_shuffle_join",
            assign="anchors",
            kernel="plane_sweep",
            eps=eps_eff,
            origins=False,
        ),
        PlanNode.make("exact_refine", eps=eps),
        PlanNode.make("accounting"),
    ]
    root = PlanNode.make(
        "staged_join",
        children=children,
        method=cfg.method,
        kernel="plane_sweep",
        backend=cfg.execution_backend,
        workers=cfg.num_workers,
        eps=eps,
    )
    return PhysicalPlan("object", root)


def generalized_plan(cfg: Any) -> "PhysicalPlan":
    """The generalized (rectangulation + ownership) join plan."""
    children = [
        PlanNode.make("rectangulation"),
        PlanNode.make(
            "assign_shuffle_join",
            assign="replication",
            kernel="plane_sweep",
            eps=cfg.eps,
            origins=False,
        ),
        PlanNode.make("ownership"),
        PlanNode.make("accounting"),
    ]
    root = PlanNode.make(
        "staged_join",
        children=children,
        method=cfg.method,
        partition=cfg.partition,
        kernel="plane_sweep",
        backend=cfg.execution_backend,
        workers=cfg.num_workers,
        eps=cfg.eps,
    )
    return PhysicalPlan("generalized", root)


def spark_style_plan(cfg: Any) -> "PhysicalPlan":
    """Algorithm 5's literal RDD staging as a plan."""
    children = [
        PlanNode.make("text_file"),
        PlanNode.make("sample"),
        PlanNode.make("broadcast_build"),
        PlanNode.make("flat_map_to_pair"),
        PlanNode.make("rdd_join"),
        PlanNode.make("rdd_distinct"),
    ]
    root = PlanNode.make(
        "staged_join",
        children=children,
        method=cfg.method,
        kernel="rdd",
        backend="simulated",
        workers=0,
        eps=cfg.eps,
    )
    return PhysicalPlan("spark_style", root)
