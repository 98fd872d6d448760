"""Shared infrastructure for the paper-reproduction benchmarks.

Scale control: the environment variable ``REPRO_BENCH_N`` sets the
stand-in for the paper's 100M-point base cardinality (default 20000,
which keeps the full suite in the minutes range while preserving the
paper's per-cell densities).  ``REPRO_BENCH_QUICK=1`` shrinks sweeps for
smoke runs.  ``REPRO_BENCH_BACKEND`` selects the execution backend the
grid joins run on (``serial`` | ``threads`` | ``processes``); metrics
then carry a measured local-join makespan next to the modelled one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.data.datasets import load_dataset
from repro.data.pointset import PointSet
from repro.engine.metrics import JoinMetrics
from repro.joins.distance_join import distance_join, paper_default_config
from repro.baselines.sedona_like import SedonaConfig, sedona_join

#: The paper's epsilon sweep (Table 3); our unit-square data space keeps
#: the same absolute values and hence the same points-per-cell regime.
EPS_SWEEP = (0.009, 0.012, 0.015, 0.018)
DEFAULT_EPS = 0.012

#: Methods compared throughout Sect. 7.
ADAPTIVE_METHODS = ("lpib", "diff")
PBSM_METHODS = ("uni_r", "uni_s", "eps_grid")
ALL_COMPARED = (*ADAPTIVE_METHODS, *PBSM_METHODS, "sedona")

#: The paper's dataset combinations.
COMBOS = (("S1", "S2"), ("R1", "S1"), ("R2", "R1"))


@dataclass(frozen=True)
class BenchScale:
    """Workload scale knobs, resolved from the environment."""

    base_n: int
    quick: bool
    num_workers: int = 12
    num_partitions: int = 96
    #: Execution backend of the local-join phase for all grid joins.
    backend: str = "serial"

    @classmethod
    def from_env(cls) -> "BenchScale":
        return cls(
            base_n=int(os.environ.get("REPRO_BENCH_N", "20000")),
            quick=os.environ.get("REPRO_BENCH_QUICK", "0") == "1",
            backend=os.environ.get("REPRO_BENCH_BACKEND", "serial"),
        )


@dataclass
class DatasetCache:
    """Memoized dataset construction shared across benchmarks."""

    scale: BenchScale
    _cache: dict = field(default_factory=dict)

    def get(
        self, codename: str, payload_bytes: int = 0, size_factor: int = 1
    ) -> PointSet:
        key = (codename, payload_bytes, size_factor)
        if key not in self._cache:
            self._cache[key] = load_dataset(
                codename,
                base_n=self.scale.base_n,
                payload_bytes=payload_bytes,
                size_factor=size_factor,
            )
        return self._cache[key]

    def combo(
        self, names: tuple[str, str], payload_bytes: int = 0, size_factor: int = 1
    ) -> tuple[PointSet, PointSet]:
        return (
            self.get(names[0], payload_bytes, size_factor),
            self.get(names[1], payload_bytes, size_factor),
        )


def run_grid_method(
    r: PointSet,
    s: PointSet,
    eps: float,
    method: str,
    scale: BenchScale,
    **overrides,
) -> JoinMetrics:
    """Run one grid-based method in the paper's setup at the bench scale;
    return metrics."""
    cfg = paper_default_config(
        eps,
        method=method,
        num_workers=overrides.pop("num_workers", scale.num_workers),
        num_partitions=overrides.pop("num_partitions", scale.num_partitions),
        collect_pairs=overrides.pop("collect_pairs", False),
        execution_backend=overrides.pop("execution_backend", scale.backend),
        **overrides,
    )
    return distance_join(r, s, cfg).metrics


def run_method(
    r: PointSet,
    s: PointSet,
    eps: float,
    method: str,
    scale: BenchScale,
    **overrides,
) -> JoinMetrics:
    """Run any compared method (grid family or the Sedona-like engine)."""
    if method == "sedona":
        cfg = SedonaConfig(
            eps=eps,
            num_workers=overrides.pop("num_workers", scale.num_workers),
            **overrides,
        )
        return sedona_join(r, s, cfg).metrics
    return run_grid_method(r, s, eps, method, scale, **overrides)
