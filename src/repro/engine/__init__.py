"""A deterministic in-process substitute for the paper's Spark cluster.

The paper evaluates on a 12-executor Spark/YARN deployment.  This engine
reproduces the *measurable behaviour* of that substrate: datasets split
into partitions across workers, a key-based shuffle whose remote-read
bytes are accounted exactly, pluggable cell-to-worker assignment (hash or
LPT), and a per-worker cost model that yields a makespan -- the modelled
execution time used by the benchmark figures.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "blockstore": (
        "SPILL_TIERS", "BlockId", "BlockMeta", "BlockStore", "CellCheckpoint",
    ),
    "cluster": ("SimCluster", "Worker"),
    "executor": (
        "BACKENDS", "ExecutionPlan", "ExecutionReport",
        "build_execution_plan", "execute_plan",
    ),
    "faults": (
        "FAULT_KINDS", "FaultClause", "FaultEvent", "FaultPlan",
        "InjectedKernelError", "InjectedWorkerKill", "RetryBudgetExhausted",
        "ShuffleFetchError",
    ),
    "lpt": ("lpt_assignment",),
    "metrics": ("CostModel", "JoinMetrics", "PhaseTimer"),
    "shuffle": ("ShuffleStats",),
    "telemetry": (
        "LOG_LEVELS", "TRACE_FORMATS", "MetricsRegistry", "RunReport", "Span",
        "Telemetry", "Tracer", "write_trace",
    ),
})
