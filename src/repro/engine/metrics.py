"""Cost model and metric records for simulated join jobs.

The paper reports three metrics per experiment (Sect. 7.1): number of
replicated objects, shuffle remote reads (bytes), and execution time.
Replication and shuffle volumes are computed exactly by the engine.
Execution time is *modelled*: each worker's clock advances by the work it
performs (bytes moved, candidate pairs compared, tuples processed) and the
job's modelled time is the slowest worker -- the makespan.  Wall-clock
times of the real in-process computation are recorded alongside for
reference.

The default constants are calibrated so a laptop-scale workload produces
numbers in the same ballpark (seconds to minutes) as the paper's cluster;
only *relative* comparisons between algorithms are meaningful, which is
also all the reproduction claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Unit costs (in modelled seconds) for the simulated cluster."""

    #: Cost of one candidate-pair distance computation.
    compare_cost: float = 5.0e-8
    #: Cost per byte read remotely during the shuffle (~50 MB/s effective,
    #: matching the paper's Ceph-backed virtual disks).
    remote_byte_cost: float = 2.0e-8
    #: Cost per byte read locally during the shuffle.
    local_byte_cost: float = 2.0e-9
    #: Cost of mapping/assigning one input tuple (map phase).
    map_tuple_cost: float = 1.0e-6
    #: Cost of handling one shuffled record at the reducer
    #: (serialize/deserialize + hash build/probe; ~micro-seconds in Spark).
    reduce_record_cost: float = 2.0e-6
    #: Cost of emitting one result pair.
    emit_cost: float = 5.0e-8
    #: Fixed per-job overhead (driver, scheduling).
    job_overhead: float = 0.02
    #: Per-task-attempt launch overhead: argument serialization, submit
    #: queue latency and worker dispatch.  Calibrated against the gap
    #: between the modelled and measured thread-pool clocks (the model
    #: without this term undershot the measured makespan by roughly the
    #: attempt count times this constant).
    task_launch_cost: float = 5.0e-3
    #: Expansion of a serialized byte once deserialized on the executor
    #: heap (JVM object headers, boxing); used by the memory model.
    heap_expansion: float = 3.0


#: The unit costs every modelled clock charges: the simulator's stages,
#: the baselines and the planner's analytical model all read this one
#: instance.
COST_MODEL = CostModel()


@dataclass
class PhaseTimer:
    """Wall-clock stopwatch for the phases of a join job."""

    phases: dict[str, float] = field(default_factory=dict)
    _start: float | None = None
    _name: str | None = None

    def start(self, name: str) -> None:
        self.stop()
        self._name = name
        self._start = time.perf_counter()

    def stop(self) -> None:
        if self._name is not None and self._start is not None:
            elapsed = time.perf_counter() - self._start
            self.phases[self._name] = self.phases.get(self._name, 0.0) + elapsed
        self._name = None
        self._start = None

    def total(self) -> float:
        return sum(self.phases.values())


@dataclass
class JoinMetrics:
    """Everything a join job reports; one instance per executed join."""

    method: str = ""
    eps: float = 0.0
    num_workers: int = 0
    num_partitions: int = 0
    grid_cells: int = 0

    # cardinalities
    input_r: int = 0
    input_s: int = 0
    replicated_r: int = 0
    replicated_s: int = 0
    candidate_pairs: int = 0
    results: int = 0

    # shuffle accounting (exact)
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    remote_records: int = 0
    remote_bytes: int = 0

    # modelled time (seconds)
    construction_time_model: float = 0.0
    join_time_model: float = 0.0

    # wall-clock of the in-process computation (seconds) per job phase;
    # the staged driver's are its ``stage_times`` summed by phase
    wall_times: dict[str, float] = field(default_factory=dict)

    # wall-clock per pipeline *stage* (finer than wall_times' phases):
    # populated by the staged driver (repro.joins.pipeline), keyed by
    # stage name, accumulated when a stage runs more than once
    stage_times: dict[str, float] = field(default_factory=dict)

    # per-worker modelled join cost, for load-balance analysis
    worker_join_costs: list[float] = field(default_factory=list)

    # real execution backend of the local-join phase and its measurements:
    # the makespan is the slowest worker group's measured kernel seconds --
    # the quantity to hold against ``join_time_model``
    execution_backend: str = "serial"
    join_wall_makespan: float = 0.0
    worker_join_wall: list[float] = field(default_factory=list)

    # fault tolerance (see repro.engine.faults / repro.engine.attempts):
    # task attempts include first runs, retries and speculative copies;
    # recovery is reported both measured (host seconds lost to failed
    # attempts and backoff) and modelled (lineage recomputation + fetch
    # re-reads charged to the simulated clocks)
    task_attempts: int = 0
    task_retries: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0
    fault_events: int = 0
    recovery_seconds: float = 0.0
    recovery_time_model: float = 0.0
    #: Backend that finished the join when execution degraded down the
    #: fallback chain (empty when the requested backend stayed healthy).
    fallback_backend: str = ""

    # block store / checkpointing (see repro.engine.blockstore): shuffle
    # output spilled as addressable blocks, fetch faults healed by
    # re-pulling only the missing blocks, and killed reduce attempts
    # salvaging already-checkpointed cells
    blocks_spilled: int = 0
    blocks_refetched: int = 0
    cells_salvaged: int = 0
    #: Measured kernel seconds the salvaged checkpoints preserved (work
    #: recovery did not have to redo on the host clock).
    salvaged_seconds: float = 0.0
    #: Modelled seconds of lineage recompute the checkpoints avoided.
    salvaged_time_model: float = 0.0

    # extra per-experiment annotations (e.g. dedup cost, marking stats)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def replicated_total(self) -> int:
        """The paper's 'number of replicated data objects' metric."""
        return self.replicated_r + self.replicated_s

    @property
    def exec_time_model(self) -> float:
        """Modelled end-to-end execution time (construction + join)."""
        return self.construction_time_model + self.join_time_model

    @property
    def wall_total(self) -> float:
        return sum(self.wall_times.values())

    @property
    def selectivity(self) -> float:
        """Join selectivity: results over the cross-product size."""
        denom = self.input_r * self.input_s
        return self.results / denom if denom else 0.0

    def publish(self, registry) -> None:
        """Publish every scalar field into a telemetry metrics registry.

        ``registry`` is duck-typed (a
        :class:`~repro.engine.telemetry.MetricsRegistry`) so this module
        needs no telemetry import.  Each numeric field becomes the gauge
        ``join.<field>`` holding the value *as stored* -- the registry is
        a view over the metrics, never a rounding of them.
        """
        from dataclasses import fields as _dataclass_fields

        for f in _dataclass_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                registry.gauge(f"join.{f.name}").set(value)
        for key, value in self.extra.items():
            registry.gauge(f"join.extra.{key}").set(value)

    def summary(self) -> str:
        """One-line report used by examples and the bench harness."""
        return (
            f"{self.method:>9}: results={self.results:>9}  "
            f"replicated={self.replicated_total:>8}  "
            f"shuffle={self.shuffle_bytes / 1e6:8.2f}MB "
            f"(remote {self.remote_bytes / 1e6:8.2f}MB)  "
            f"time={self.exec_time_model:7.2f}s "
            f"(constr {self.construction_time_model:5.2f}s)"
        )
