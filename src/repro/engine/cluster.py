"""The simulated cluster: workers, placement, and modelled clocks.

Placement follows Spark's defaults: input splits and reduce partitions are
spread over workers round-robin.  Every worker owns a set of modelled
clocks (one per job phase); a phase's modelled duration is its *makespan*,
the maximum clock over workers, because the paper's Spark stages cannot
finish before their slowest task.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


#: Phases that only exist when fault recovery ran: re-executed join
#: lineage and injected straggler delays land in ``recovery``; full
#: shuffle re-reads after a failed fetch land in ``fetch_retry``; with
#: the block store enabled a failed fetch instead pulls only the missing
#: spilled blocks, charged to ``block_refetch``.
RECOVERY_PHASES = ("recovery", "fetch_retry", "block_refetch")

#: Informational phase holding the modelled seconds fine-grained recovery
#: *saved* (checkpoint salvage); excluded from :data:`RECOVERY_PHASES`
#: because savings are not work.
SALVAGE_PHASE = "salvaged"


@dataclass
class Worker:
    """One simulated executor and its modelled clocks, one per phase.

    A worker's measured local-join seconds are the executor report's
    ``worker_wall`` entry, published as ``JoinMetrics.worker_join_wall``.
    """

    worker_id: int
    clocks: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, phase: str, seconds: float) -> None:
        self.clocks[phase] += seconds

    def total(self, phases: tuple[str, ...]) -> float:
        return sum(self.clocks.get(p, 0.0) for p in phases)


class SimCluster:
    """A fixed-size pool of simulated workers."""

    def __init__(self, num_workers: int):
        if num_workers <= 0:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.workers = [Worker(i) for i in range(num_workers)]

    def add_cost(self, worker_id: int, phase: str, seconds: float) -> None:
        self.workers[worker_id].add(phase, seconds)

    def phase_makespan(self, *phases: str) -> float:
        """Slowest worker over the given phases."""
        return max(w.total(phases) for w in self.workers)

    def phase_loads(self, *phases: str) -> list[float]:
        """Per-worker modelled cost over the given phases."""
        return [w.total(phases) for w in self.workers]

    def recovery_time(self) -> float:
        """Modelled makespan of all fault-recovery work (0 without faults).

        Recovery work -- recomputed task lineage, straggler delays,
        shuffle re-reads -- is charged to the :data:`RECOVERY_PHASES`
        clocks of the worker that performs it, so a failure on an
        already-loaded worker stretches the modelled makespan more than
        one on an idle worker, exactly like a Spark stage retry.
        """
        return self.phase_makespan(*RECOVERY_PHASES)

    def salvaged_time(self) -> float:
        """Total modelled seconds checkpoint salvage saved (0 without it).

        Reported as a *sum* over workers, not a makespan: every salvaged
        cell is recompute work that never had to be scheduled anywhere.
        """
        return sum(w.total((SALVAGE_PHASE,)) for w in self.workers)

    def clock_snapshot(self) -> dict[int, dict[str, float]]:
        """Per-worker modelled clocks as plain dicts (for run reports)."""
        return {w.worker_id: dict(w.clocks) for w in self.workers}
