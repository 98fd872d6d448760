"""The query-planning layer: logical specs, physical plans, cost search.

Two-level plan model:

* a **logical plan** (:class:`~repro.planner.logical.JoinSpec`) says
  *what* is being joined -- join kind, datasets and their fingerprints,
  eps, tuple widths, sampled input statistics;
* a **physical plan** (:class:`~repro.joins.plan.PhysicalPlan`) says
  *how* -- the driver config carrying the chosen agreement policy, grid
  resolution, local kernel, execution backend and worker count, and the
  driver's stage list it runs.

On top sits the **cost-based planner**
(:func:`~repro.planner.planner.plan_join`): it enumerates candidate
physical plans over the unpinned choice dimensions, prices each with the
analytical cost model (:mod:`repro.core.cost_model`, extended with
per-kernel and per-worker-count clocks calibrated from sampled grid
statistics) and picks the argmin.  The CLI surfaces it as
``--tuning auto`` and ``repro explain``; the serving layer plans per
query and caches chosen plans by dataset fingerprint + eps bucket
(:class:`~repro.planner.planner.PlanCache`), recording
predicted-vs-measured clock error in the RunReport.

Layering: this package sits above ``repro.core``/``repro.engine``/
``repro.joins`` and below ``repro.serving``/``repro.cli`` (enforced by
``tests/test_layering.py``).  Physical plans live in
:mod:`repro.joins.plan`, beside the drivers whose stage lists they name.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "accuracy": (
        "ClockError", "clock_errors_from_metrics", "replay_reports",
    ),
    "logical": ("JoinSpec",),
    "planner": (
        "CLOCKS", "DEFAULT_FACTORS", "DEFAULT_KERNELS", "DEFAULT_METHODS",
        "DEFAULT_WORKER_CANDIDATES", "Candidate", "PlanCache", "PlannedJoin",
        "backend_clock", "eps_bucket", "plan_join",
    ),
})
