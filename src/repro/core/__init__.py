"""Analytical models of the paper's algorithms (Sect. 8 future work).

The paper's conclusions name "deriving a theoretical cost model for our
algorithms" as future work.  This package provides one: closed-form
predictions of replication, shuffle volume, result cardinality and
modelled execution time for every grid method, computed from the sample
statistics alone -- i.e. *before* running the join.  The one search
over them is :func:`repro.planner.plan_join`.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "cost_model": ("AnalyticalCostModel", "CostPrediction", "predict_join"),
})
