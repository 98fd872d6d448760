"""The cost-based planner: enumerate, price, pick the argmin.

The search space is the cross product of the paper's knob set -- the
agreement method (LPiB/DIFF/uniform/eps-grid), the grid resolution
factor, the local-join kernel, and the simulated worker count -- minus
whatever the caller **pins** (an explicitly passed CLI flag, a client
query field, or a server-controlled choice).  Every candidate is priced
with :class:`~repro.core.cost_model.AnalyticalCostModel` -- one Bernoulli
sample, split into decision/counting halves, shared by all candidates --
and the argmin by the predicted clock of the backend that will run wins.

**Two clocks** over the same predicted quantities (:data:`CLOCKS`).  The
*modelled* clock is the paper's cluster makespan -- every term divided by
the worker count, the shuffle a network -- and is what the paper figures
and the modelled-regret tests ask for with ``clock="modelled"``.  The
*wall* clock (:mod:`repro.core.wall_model`: fitted seconds per phase,
nothing divided by a worker count that is a loop in one interpreter) is
the objective when the plan runs on the ``serial`` backend -- there it is
the clock the caller waits for, and ``serial`` is the backend its
constants were measured on.  ``threads`` and ``processes`` really run
their workers side by side and stay on the modelled clock
(plus the per-task launch overhead) until they have a calibration of
their own.  The clock follows the backend; it is not a setting.

The execution backend is carried as a plan dimension but not
enumerated: it stays whatever the caller configured or pinned, and it
names the objective.

:class:`PlanCache` is the serving-layer hook: chosen plans keyed by
dataset fingerprints + eps *bucket* (quarter-decade quantization), so a
resident server re-plans only when the inputs or the effective geometry
change, not on every query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.cost_model import (
    CLOCKS,
    PRICEABLE_KERNELS,
    AnalyticalCostModel,
    CostPrediction,
    _build_models,
)
from repro.engine.lru import LRUCache
from repro.joins.distance_join import GRID_METHODS, PLAN_FIELDS, JoinConfig
from repro.joins.plan import PhysicalPlan, distance_plan
from repro.planner.logical import JoinSpec

__all__ = [
    "CLOCKS",
    "DEFAULT_METHODS",
    "DEFAULT_FACTORS",
    "DEFAULT_KERNELS",
    "DEFAULT_WORKER_CANDIDATES",
    "PLAN_DIMENSIONS",
    "Candidate",
    "PlannedJoin",
    "PlanCache",
    "backend_clock",
    "eps_bucket",
    "plan_join",
]

DEFAULT_METHODS = GRID_METHODS
DEFAULT_FACTORS = (2.0, 3.0, 4.0)
DEFAULT_KERNELS = PRICEABLE_KERNELS
DEFAULT_WORKER_CANDIDATES = (4, 8, 12, 16)

#: The pinnable choice dimensions, in candidate-tiebreak order.
PLAN_DIMENSIONS = tuple(PLAN_FIELDS)


def backend_clock(backend: str) -> str:
    """The objective a plan for ``backend`` is priced on.

    The wall constants were fitted on ``serial`` runs, where the
    simulated workers are a loop and no term is divided by their count.
    Every other backend runs them in parallel, which that fit says
    nothing about, and keeps the modelled makespan.
    """
    return "wall" if backend == "serial" else "modelled"


@dataclass(frozen=True)
class Candidate:
    """One enumerated physical-plan choice with its predicted clocks."""

    method: str
    resolution_factor: float
    kernel: str
    workers: int
    backend: str
    prediction: CostPrediction
    #: which of :data:`CLOCKS` the planner minimized (:attr:`predicted_clock`)
    clock: str = "modelled"

    @property
    def modelled_clock(self) -> float:
        """Predicted cluster makespan, construction + join (the paper's clock).

        Non-serial backends additionally pay the per-task launch
        overhead -- the term that separates backends on a real host
        while the simulated clocks stay backend-invariant.
        """
        if self.backend == "serial":
            return self.prediction.exec_time
        return self.prediction.exec_time_launch_adjusted

    @property
    def wall_clock(self) -> float:
        """Predicted wall of a ``serial`` run (the clock its caller waits for)."""
        return self.prediction.wall_time

    @property
    def predicted_clock(self) -> float:
        """The objective: whichever of the two clocks :attr:`clock` names."""
        return self.wall_clock if self.clock == "wall" else self.modelled_clock

    def key(self) -> tuple:
        return (
            self.method,
            self.resolution_factor,
            self.kernel,
            self.workers,
            self.backend,
        )

    def row(self) -> dict[str, Any]:
        p = self.prediction
        return {
            "method": self.method,
            "resolution_factor": self.resolution_factor,
            "kernel": self.kernel,
            "workers": self.workers,
            "backend": self.backend,
            "objective": self.clock,
            "predicted_clock": self.predicted_clock,
            "predicted_wall_clock": self.wall_clock,
            "predicted_modelled_clock": self.modelled_clock,
            "predicted_construction": p.construction_time,
            "predicted_join": p.join_time,
            "predicted_launch": p.launch_time,
            "predicted_replicas": p.replicated_total,
            "predicted_results": p.results,
            "predicted_candidates": p.candidates,
        }


@dataclass(frozen=True)
class PlannedJoin:
    """The planner's verdict: spec in, chosen plan + full table out."""

    spec: JoinSpec
    config: JoinConfig
    chosen: Candidate
    candidates: tuple[Candidate, ...]
    pins: dict[str, Any] = field(default_factory=dict)

    @property
    def plan(self) -> PhysicalPlan:
        """The chosen physical plan: derived from ``config``, never beside it."""
        return distance_plan(self.config)

    @property
    def predicted_clock(self) -> float:
        return self.chosen.predicted_clock

    @property
    def clock(self) -> str:
        """The objective every candidate was ranked on."""
        return self.chosen.clock

    def run_meta(self) -> dict:
        """What a planned run records before it executes.

        The RunReport's ``planner`` section: the chosen dimensions, the
        predicted seconds per phase under the clock they were priced on,
        and the quantities they were priced from -- enough for
        :func:`repro.planner.accuracy.replay_reports` to rescore the run
        and for ``scripts/fit_wall_model.py --history`` to refit from it.
        """
        chosen = self.chosen
        return {
            "chosen": {
                k: v for k, v in chosen.row().items()
                if not k.startswith("predicted_")
            },
            "predicted": {
                "clock": chosen.clock,
                **chosen.prediction.phases(chosen.clock),
            },
            "quantities": chosen.prediction.quantities(),
        }

    def _ranked(self, limit: int | None) -> list[Candidate]:
        rows = sorted(self.candidates, key=lambda c: (c.predicted_clock, c.key()))
        return rows if limit is None else rows[:limit]

    def candidate_table(self, limit: int | None = None) -> str:
        """The explored configurations, best objective first, both clocks."""
        lines = [
            f"{'':>2} {'method':>9} {'k*eps':>6} {'kernel':>12} {'W':>3} "
            f"{'pred wall':>10} {'pred model':>10} {'pred repl':>11} {'pred cand':>12}"
        ]
        for c in self._ranked(limit):
            mark = "*" if c.key() == self.chosen.key() else ""
            lines.append(
                f"{mark:>2} {c.method:>9} {c.resolution_factor:>6.1f} "
                f"{c.kernel:>12} {c.workers:>3} "
                f"{c.wall_clock:>9.3f}s {c.modelled_clock:>9.3f}s "
                f"{c.prediction.replicated_total:>11,.0f} "
                f"{c.prediction.candidates:>12,.0f}"
            )
        if limit is not None and len(self.candidates) > limit:
            lines.append(f"   ... {len(self.candidates) - limit} more")
        return "\n".join(lines)

    def explain(self, limit: int | None = 12) -> str:
        """Logical spec + pins + candidate table + the chosen plan."""
        parts = [self.spec.describe()]
        if self.pins:
            pinned = "  ".join(f"{k}={v}" for k, v in sorted(self.pins.items()))
            parts.append(f"pinned choices: {pinned}")
        else:
            parts.append("pinned choices: none (all dimensions searched)")
        parts.append(
            f"candidates ({len(self.candidates)} enumerated, objective = "
            f"{self.clock} clock on backend {self.chosen.backend}, "
            f"best first, * = chosen):"
        )
        parts.append(self.candidate_table(limit))
        parts.append("chosen physical plan:")
        parts.append(self.plan.render())
        return "\n".join(parts)

    def to_payload(self, limit: int | None = 12) -> dict:
        """JSON-safe summary (the serving layer's stats/explain view)."""
        r_fingerprint, s_fingerprint = self.spec.fingerprints
        return {
            "objective": self.clock,
            "spec": {
                "eps": self.spec.eps,
                "n_r": self.spec.n_r,
                "n_s": self.spec.n_s,
                "r_fingerprint": r_fingerprint,
                "s_fingerprint": s_fingerprint,
            },
            "pins": dict(self.pins),
            "chosen": self.chosen.row(),
            "candidates": [c.row() for c in self._ranked(limit)],
        }


def eps_bucket(eps: float) -> float:
    """Quantize ``eps`` to a quarter-decade bucket id.

    Nearby thresholds produce the same replication/clock trade-offs, so
    the serving layer shares one cached plan per bucket instead of
    re-planning every distinct eps.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    return round(math.log10(eps) * 4) / 4


def plan_join(
    r: Any,
    s: Any,
    eps: float,
    *,
    pins: dict[str, Any] | None = None,
    base: JoinConfig | None = None,
    sample_rate: float | None = None,
    seed: int | None = None,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    factors: tuple[float, ...] = DEFAULT_FACTORS,
    kernels: tuple[str, ...] = DEFAULT_KERNELS,
    worker_candidates: tuple[int, ...] = DEFAULT_WORKER_CANDIDATES,
    spec: JoinSpec | None = None,
    clock: str | None = None,
) -> PlannedJoin:
    """Choose the predicted-fastest distance-join plan for ``(r, s, eps)``.

    ``pins`` maps dimension names (:data:`PLAN_DIMENSIONS`) to forced
    values -- a pinned dimension collapses to that single value and is
    reported as pinned in the explain output.  ``base`` supplies every
    non-searched :class:`JoinConfig` field (spill, faults, telemetry,
    partitions...); the planner replaces only the dimensions it owns.
    ``sample_rate`` and ``seed`` default to ``base``'s (to
    :class:`JoinConfig`'s without one).  ``JoinConfig`` checks ``eps``,
    every pin and every value the search may choose before the sample
    is drawn; the planner adds one rule of its own: a kernel must be
    priceable (:data:`~repro.core.cost_model.PRICEABLE_KERNELS`).

    One Bernoulli sample is drawn (decision/counting halves, bias
    corrected) and shared by every candidate; enumeration prices
    ``methods x factors x kernels x worker_candidates`` and picks the
    argmin predicted clock, ties broken deterministically by the
    candidate key.

    The objective follows the backend (:func:`backend_clock`): predicted
    wall on ``serial``, the modelled cluster makespan on the backends
    that run their workers in parallel.  ``clock="modelled"`` asks for
    the paper's clock on any backend -- the paper figures and the
    modelled-regret tests do.
    """
    pins = dict(pins or {})
    unknown = set(pins) - set(PLAN_DIMENSIONS)
    if unknown:
        raise ValueError(
            f"unknown plan dimension(s) {sorted(unknown)}; "
            f"pinnable: {PLAN_DIMENSIONS}"
        )
    kernels = (pins["kernel"],) if "kernel" in pins else tuple(kernels)
    for k in kernels:
        if k not in PRICEABLE_KERNELS:
            raise ValueError(
                f"kernel {k!r} cannot be planned; priceable: {PRICEABLE_KERNELS}"
            )
    overrides = {PLAN_FIELDS[dim]: value for dim, value in pins.items()}
    if sample_rate is not None:
        overrides["sample_rate"] = sample_rate
    if seed is not None:
        overrides["seed"] = seed
    base = (
        JoinConfig(eps=eps, **overrides)
        if base is None
        else replace(base, eps=eps, **overrides)
    )
    methods = (base.method,) if "method" in pins else tuple(methods)
    factors = (
        (float(base.resolution_factor),)
        if "resolution_factor" in pins
        else tuple(factors)
    )
    workers = (
        (int(base.num_workers),) if "workers" in pins else tuple(worker_candidates)
    )
    # JoinConfig checks every value the search may choose (the pins were
    # checked as base took them), before the sample is drawn
    for name, values in (
        ("method", methods),
        ("resolution_factor", factors),
        ("num_workers", workers),
    ):
        for value in values:
            replace(base, **{name: value})
    sample_rate, seed, backend = base.sample_rate, base.seed, base.execution_backend
    clock = backend_clock(backend) if clock is None else clock
    if clock not in CLOCKS:
        raise ValueError(f"unknown clock {clock!r}; choose from {CLOCKS}")

    if spec is None:
        spec = JoinSpec.from_pointsets(
            r, s, eps, sample_rate=sample_rate, seed=seed
        )

    build = _build_models(
        r, s, eps, sample_rate, num_workers=base.num_workers, seed=seed
    )
    models: dict[float, AnalyticalCostModel] = {}
    candidates: list[Candidate] = []
    for method in methods:
        # the eps-grid baseline always runs on its own 1x-eps grid
        for factor in (1.0,) if method == "eps_grid" else factors:
            if factor not in models:
                models[factor] = build(factor)
            model = models[factor]
            for kernel in kernels:
                candidates.extend(
                    Candidate(
                        method, factor, kernel, w, backend,
                        model.predict(method, kernel=kernel, num_workers=w),
                        clock,
                    )
                    for w in workers
                )

    spec = replace(spec, sample_results=next(iter(models.values())).sample_results)
    chosen = min(candidates, key=lambda c: (c.predicted_clock, c.key()))
    config = replace(
        base,
        method=chosen.method,
        resolution_factor=chosen.resolution_factor,
        local_kernel=chosen.kernel,
        num_workers=chosen.workers,
    )
    return PlannedJoin(
        spec=spec,
        config=config,
        chosen=chosen,
        candidates=tuple(candidates),
        pins=pins,
    )


class PlanCache(LRUCache):
    """The entry-budgeted LRU of chosen plans, keyed by fingerprints + eps bucket.

    The serving layer consults it per query: same datasets (by content
    fingerprint), same eps bucket, same client pins -> same plan, no
    re-enumeration.  Entries are whole :class:`PlannedJoin` values, so a
    hit replays the exact chosen config and can still render its
    explain table.
    """

    def __init__(self, capacity: int = 64):
        super().__init__(limit_entries=capacity)

    @staticmethod
    def key(
        r_fingerprint: str,
        s_fingerprint: str,
        eps: float,
        pins: dict[str, Any] | None = None,
        **extra: Any,
    ) -> tuple:
        pin_sig = tuple(sorted((pins or {}).items()))
        extra_sig = tuple(sorted(extra.items()))
        return (r_fingerprint, s_fingerprint, eps_bucket(eps), pin_sig, extra_sig)

    def stats(self) -> dict:
        stats = super().stats()
        # budgeted in entries: a capacity, and no byte columns
        del stats["bytes"], stats["limit_bytes"]
        return {**stats, "capacity": self.limit_entries}
