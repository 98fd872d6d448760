"""An analytical cost model for the parallel distance-join methods.

Given the grid statistics collected from a Bernoulli sample (the same
statistics Algorithm 5 gathers anyway), the model predicts -- without
executing the join -- the quantities the paper measures:

* **replication**: for universal methods, the sum of border-strip and
  corner candidates of the replicated input; for adaptive methods, the
  sum over adjacent cell pairs of the *agreed* input's candidates
  (edge-marking and supplementary corrections are second-order and
  ignored; the validation tests bound the resulting error).
* **shuffle volume**: records = inputs + replicas; bytes follow the
  record-size model; remote fraction approaches ``(W - 1) / W`` under
  hash placement.
* **result cardinality**: preferably the *sample-join estimator* -- join
  the two samples and scale by ``1 / phi^2``, which is unbiased for any
  distribution; a within-cell-uniformity analytic estimate serves as the
  fallback when the raw samples are unavailable.
* **candidate pairs** (plane-sweep): post-replication products scaled by
  the edge-clipped sweep-window fraction ``(2 eps - eps^2 / w) / w``; an
  upper bound under within-cell uniformity (clustering lowers it).
* **modelled time**: the same ``CostModel`` constants the engine charges,
  with phase makespans approximated by ``max(total / W, hottest cell)``.

All sample counts are scaled by ``1 / phi`` (products by ``1 / phi^2``).

**Selection bias.** Adaptive methods *choose* the input with the smaller
sampled boundary count, so evaluating the chosen side on the same sample
underestimates true replication (a winner's-curse effect).  When
``count_stats`` is supplied (statistics from an independent half of the
sample), decisions are made on one half and counted on the other, which
removes the bias; :func:`predict_join` does this automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.agreements.policies import DiffPolicy, LPiBPolicy
from repro.core.wall_model import WALL_PHASES, wall_line
from repro.engine.metrics import CostModel
from repro.engine.shuffle import KEY_BYTES
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics


#: Local-join kernels the model can price (mirrors
#: ``repro.joins.local.LOCAL_KERNELS``; kept as data so importing the
#: model does not import the join layer).
PRICEABLE_KERNELS = ("plane_sweep", "grid_hash", "rtree", "nested_loop")

#: The two clocks a prediction carries: the paper's cluster makespan and
#: the wall of a ``serial`` run (:mod:`repro.core.wall_model`).
CLOCKS = ("modelled", "wall")

#: Leaf capacity of the STR R-tree kernel (``repro.baselines.rtree``).
_RTREE_LEAF_CAPACITY = 32


@dataclass(frozen=True)
class CostPrediction:
    """Closed-form estimates for one join method."""

    method: str
    replicated_r: float
    replicated_s: float
    shuffle_records: float
    shuffle_bytes: float
    remote_bytes: float
    results: float
    candidates: float
    construction_time: float
    join_time: float
    #: Serialization/launch overhead of the join tasks: one fixed submit
    #: cost (argument marshalling + dispatch) per worker task.  Kept out
    #: of :attr:`exec_time` because the simulated clocks it predicts
    #: exclude launch costs too; add it when comparing against measured
    #: wall time on a real thread/process backend (it mirrors the
    #: ``launch_overhead_model`` extra the accounting stage reports).
    launch_time: float = 0.0
    #: Local-join kernel the candidate count was priced for (the
    #: planner's kernel dimension; ``plane_sweep`` is the historical
    #: default every pre-planner prediction used).
    kernel: str = "plane_sweep"
    #: Worker count the makespans were priced for (``0``: the model's
    #: constructor-level default).
    workers: int = 0
    #: Input cardinalities and grid size the prediction is about -- with
    #: the counts above, everything :func:`repro.core.wall_model.wall_terms`
    #: reads (:meth:`quantities`).
    n_r: int = 0
    n_s: int = 0
    cells: int = 0
    #: Records (natives + replicas) in cells holding *both* inputs, and
    #: the number of such cells: only those are joined, a cell with one
    #: side present costs the local join nothing.
    joinable_r: float = 0.0
    joinable_s: float = 0.0
    joinable_cells: int = 0
    #: Predicted ``serial`` wall seconds per
    #: :data:`~repro.core.wall_model.WALL_PHASES` phase -- the second clock
    #: over the same quantities: what a caller of the ``serial`` backend
    #: waits for, where the modelled times above are the paper's cluster.
    wall_phases: tuple[float, ...] = (0.0,) * len(WALL_PHASES)

    @property
    def replicated_total(self) -> float:
        return self.replicated_r + self.replicated_s

    @property
    def wall_time(self) -> float:
        """Predicted end-to-end wall on the ``serial`` backend."""
        return sum(self.wall_phases)

    def phases(self, clock: str) -> dict[str, float]:
        """Predicted seconds per phase on one of :data:`CLOCKS`."""
        if clock == "wall":
            return dict(zip(WALL_PHASES, self.wall_phases))
        return {"construction": self.construction_time, "join": self.join_time}

    def quantities(self) -> dict:
        """What the wall terms are computed from (recorded with a planned run)."""
        return {
            "method": self.method,
            "kernel": self.kernel,
            "workers": self.workers,
            "n_r": self.n_r,
            "n_s": self.n_s,
            "cells": self.cells,
            "replicated_r": self.replicated_r,
            "replicated_s": self.replicated_s,
            "joinable_r": self.joinable_r,
            "joinable_s": self.joinable_s,
            "joinable_cells": self.joinable_cells,
            "candidates": self.candidates,
            "results": self.results,
        }

    @property
    def exec_time(self) -> float:
        return self.construction_time + self.join_time

    @property
    def exec_time_launch_adjusted(self) -> float:
        """:attr:`exec_time` plus the launch/serialization overhead."""
        return self.exec_time + self.launch_time

    def describe(self) -> str:
        return (
            f"{self.method:>9}: ~{self.replicated_total:,.0f} replicas, "
            f"~{self.shuffle_bytes / 1e6:.2f} MB shuffle, "
            f"~{self.results:,.0f} results, ~{self.exec_time:.3f}s"
        )


class _MethodTotals(NamedTuple):
    """What a method's predictions share across kernels and worker counts."""

    repl: dict
    records: float
    shuffle_bytes: float
    bcast_payload: float
    counts: dict  # per-cell populations after replication, by side
    joinable_r: float
    joinable_s: float
    joinable_cells: int


class _KernelTotals(NamedTuple):
    """What a (method, kernel)'s predictions share across worker counts."""

    candidates: float
    cost_sum: float  # modelled compare cost, all cells
    cost_max: float  # ... of the hottest cell
    wall: tuple  # per WALL_PHASES phase: (seconds at no worker, per worker)


class AnalyticalCostModel:
    """Predicts the cost of every grid method from sample statistics."""

    def __init__(
        self,
        grid: Grid,
        stats: GridStatistics,
        sample_rate: float,
        n_r: int,
        n_s: int,
        record_bytes_r: int = 24,
        record_bytes_s: int = 24,
        num_workers: int = 12,
        cost_model: CostModel | None = None,
        count_stats: GridStatistics | None = None,
        count_rate: float | None = None,
        sample_results: int | None = None,
        sample_results_rate: float | None = None,
    ):
        if not 0 < sample_rate <= 1:
            raise ValueError("sample rate must be in (0, 1]")
        self.grid = grid
        self.stats = stats  # drives agreement decisions
        self.phi = sample_rate
        #: statistics used for *counting*; an independent sample half
        #: removes the winner's-curse bias of adaptive replication.
        self.count_stats = count_stats or stats
        self.count_phi = count_rate if count_rate is not None else sample_rate
        self.n_r = n_r
        self.n_s = n_s
        self.record_bytes = {Side.R: record_bytes_r, Side.S: record_bytes_s}
        self.num_workers = num_workers
        self.cm = cost_model or CostModel()
        #: result count of joining the two samples, for the unbiased
        #: sample-join cardinality estimator (optional).
        self.sample_results = sample_results
        self.sample_results_rate = sample_results_rate or sample_rate
        # the replica inflow depends only on the method; the planner
        # prices many (kernel, workers) points per method, so memoize it
        self._inflow_cache: dict[str, dict[Side, np.ndarray]] = {}
        self._pairs = None  # the grid's adjacent cell pairs, method-independent
        self._near = None  # per-cell presence of either input (see _presence)
        # ... and so do replication and shuffle volume; the candidate sums
        # depend on (method, kernel); the result estimate on neither
        self._method_cache: dict[str, _MethodTotals] = {}
        self._kernel_cache: dict[tuple[str, str], _KernelTotals] = {}
        self._results: float | None = None

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------
    def _replicated_side(self, method: str) -> Side | None:
        if method == "uni_r":
            return Side.R
        if method == "uni_s":
            return Side.S
        if method == "eps_grid":
            return Side.R if self.n_r <= self.n_s else Side.S
        return None

    def _replica_inflow(self, method: str) -> dict[Side, np.ndarray]:
        """Per-cell replicas each input receives, in counting-sample units.

        Agreement decisions come from ``stats``, counts from
        ``count_stats`` (see *Selection bias* above).
        """
        inflow = self._inflow_cache.get(method)
        if inflow is None:
            if self._pairs is None:
                self._pairs = self.grid.adjacent_pair_arrays()
            pairs = self._pairs
            policy = {"lpib": LPiBPolicy, "diff": DiffPolicy}.get(method)
            agreed_r = None if policy is None else policy().decide_pairs(self.stats, pairs)
            inflow = self.count_stats.replica_inflows(
                pairs, agreed_r, self._replicated_side(method)
            )
            self._inflow_cache[method] = inflow
        return inflow

    def predicted_replication(self, method: str) -> dict[Side, float]:
        """Expected replicated objects per input, scaled to full data."""
        scale = 1.0 / self.count_phi
        return {
            side: float(inflow.sum()) * scale
            for side, inflow in self._replica_inflow(method).items()
        }

    # ------------------------------------------------------------------
    # per-cell populations after replication
    # ------------------------------------------------------------------
    def _post_replication_counts(self, method: str) -> dict[Side, np.ndarray]:
        scale = 1.0 / self.count_phi
        return {
            side: (self.count_stats.cell_counts(side) + inflow) * scale
            for side, inflow in self._replica_inflow(method).items()
        }

    # ------------------------------------------------------------------
    # headline predictions
    # ------------------------------------------------------------------
    def predicted_results(self) -> float:
        """Expected join cardinality (method-independent).

        Prefers the unbiased sample-join estimator when the constructor
        received ``sample_results``; otherwise falls back to the analytic
        within-cell-uniformity estimate (an overestimate for strongly
        sub-cell-clustered data).
        """
        if self.sample_results is not None:
            return self.sample_results / (self.sample_results_rate**2)
        eps = self.grid.eps
        cell_area = self.grid.cell_w * self.grid.cell_h
        match_prob = min(1.0, math.pi * eps * eps / cell_area)
        counts = self._post_replication_counts("uni_r")
        # Use the UNI(R) population: every R point within eps of a border
        # is present wherever its partners are, so per-cell products of
        # (replicated R) x (native S) cover cross-border pairs once.
        native_s = self.count_stats.cell_counts(Side.S) / self.count_phi
        return float(np.sum(counts[Side.R] * native_s) * match_prob)

    # ------------------------------------------------------------------
    # per-choice clocks: kernel-specific candidate windows
    # ------------------------------------------------------------------
    def _kernel_candidates(
        self, kernel: str, counts: dict[Side, np.ndarray]
    ) -> np.ndarray:
        """Per-cell expected candidate pairs under the chosen kernel.

        Each local kernel inspects a different fraction of the per-cell
        cross product, and the engine charges ``compare_cost`` per
        *inspected* candidate -- so the kernel choice moves the modelled
        join clock.  The windows are calibrated from the sampled grid
        statistics under within-cell uniformity:

        * ``nested_loop`` inspects everything: fraction 1.
        * ``plane_sweep`` inspects the edge-clipped x-window
          ``(2 eps - eps^2 / w) / w`` (the historical model).
        * ``grid_hash`` probes three ``eps``-bands with sorted-x windows:
          ``3 eps`` tall times a mean band width of ``(2 + pi) eps / 3``,
          i.e. ``(2 + pi) eps^2`` around each point.  Between two natives
          of the cell the window is clipped to the cell; a pair that
          straddles the border is inspected here only when its outside
          end was replicated in, so that share of the window is weighted
          by each side's replicas per unit of the ``eps``-rim.
        * ``rtree`` visits whole leaves (capacity
          :data:`_RTREE_LEAF_CAPACITY`) whose MBR intersects the probe's
          eps-box; leaves tile the cell, so a probe touches
          ``(2 eps / leaf_side + 1)^2`` of them.
        """
        eps = self.grid.eps
        cw, ch = self.grid.cell_w, self.grid.cell_h
        n_r, n_s = counts[Side.R], counts[Side.S]
        products = n_r * n_s
        if kernel == "nested_loop":
            return products
        if kernel == "plane_sweep":
            window = min(1.0, max(0.0, (2 * eps - eps * eps / cw) / cw))
            return products * window
        if kernel == "grid_hash":
            ax, ay = (2.0 + math.pi) * eps / 6.0, 1.5 * eps  # window half-extents
            cell = cw * ch
            # pairs in the window with both ends / exactly one end in the cell
            inside = (
                min(cw, 2 * ax - ax * ax / cw) * min(ch, 2 * ay - ay * ay / ch) * cell
            )
            straddle = 4 * ax * ay * cell - inside
            rim = (cw + 2 * eps) * (ch + 2 * eps) - cell
            nat_r, nat_s = (
                self.count_stats.cell_counts(side) / self.count_phi
                for side in (Side.R, Side.S)
            )
            crossing = (n_r - nat_r) * nat_s + nat_r * (n_s - nat_s)
            return (nat_r * nat_s * inside + crossing * straddle * cell / rim) / cell**2
        if kernel == "rtree":
            cap = float(_RTREE_LEAF_CAPACITY)
            dense = np.maximum(n_s, 1.0)
            leaf_side = np.sqrt(cw * ch * cap / dense)
            overlapped = (2.0 * eps / leaf_side + 1.0) ** 2
            per_probe = np.minimum(n_s, overlapped * cap)
            return n_r * per_probe
        raise ValueError(
            f"unpriceable kernel {kernel!r}; choose from {PRICEABLE_KERNELS}"
        )

    def _presence(self) -> tuple[np.ndarray, np.ndarray]:
        """Per cell: is R (is S) in it or in an edge-adjacent cell?

        Only cells holding both inputs are joined, so the local join pays
        for the records of those cells alone.  A thresholded sample count
        misses most sparse cells (1.5% of 30 points is none, half the
        time); both sample halves together, spread to the four edge
        neighbours, see 0.8-1.1 of the truly joinable records of inputs
        that cover each other and stay within ~3x on disjoint clusters.
        """
        if self._near is None:
            shape = (self.grid.ny, self.grid.nx)
            near = []
            for side in (Side.R, Side.S):
                here = (
                    self.stats.cell_counts(side) + self.count_stats.cell_counts(side)
                ).reshape(shape) > 0
                spread = here.copy()
                spread[1:] |= here[:-1]
                spread[:-1] |= here[1:]
                spread[:, 1:] |= here[:, :-1]
                spread[:, :-1] |= here[:, 1:]
                near.append(spread.ravel())
            self._near = tuple(near)
        return self._near

    def _method_totals(self, method: str) -> _MethodTotals:
        """Everything a method's prediction needs that no kernel or worker
        count changes: replication, shuffle volume, broadcast payload, the
        per-cell populations after replication and the joinable records."""
        totals = self._method_cache.get(method)
        if totals is None:
            from repro.engine.broadcast import grid_broadcast_bytes

            repl = self.predicted_replication(method)
            records = self.n_r + self.n_s + repl[Side.R] + repl[Side.S]
            shuffle_bytes = (
                (self.n_r + repl[Side.R]) * (KEY_BYTES + self.record_bytes[Side.R])
                + (self.n_s + repl[Side.S]) * (KEY_BYTES + self.record_bytes[Side.S])
            )
            # broadcast payload: bare grid for PBSM; grid + agreements for the
            # adaptive methods (sizes depend only on the grid shape)
            bcast_payload = grid_broadcast_bytes(self.grid)
            if method in ("lpib", "diff"):
                quartets = max(self.grid.nx - 1, 0) * max(self.grid.ny - 1, 0)
                bcast_payload += (
                    quartets * (32 + 12 * 24) + self.grid.num_adjacent_pairs * 12
                )
            counts = self._post_replication_counts(method)
            near_r, near_s = self._presence()
            totals = _MethodTotals(
                repl, records, shuffle_bytes, bcast_payload, counts,
                joinable_r=float(counts[Side.R][near_s].sum()),
                joinable_s=float(counts[Side.S][near_r].sum()),
                joinable_cells=int((near_r & near_s).sum()),
            )
            self._method_cache[method] = totals
        return totals

    def _kernel_totals(self, method: str, kernel: str) -> _KernelTotals:
        """A (method, kernel)'s candidate sum, modelled cost sum and hottest
        cell, and its wall phases as lines in the worker count."""
        totals = self._kernel_cache.get((method, kernel))
        if totals is None:
            if self._results is None:
                self._results = self.predicted_results()
            m = self._method_totals(method)
            per_cell_candidates = self._kernel_candidates(kernel, m.counts)
            candidates = float(per_cell_candidates.sum())
            per_cell_cost = per_cell_candidates * self.cm.compare_cost
            line = wall_line({
                "method": method, "kernel": kernel,
                "n_r": self.n_r, "n_s": self.n_s, "cells": self.grid.num_cells,
                "replicated_r": m.repl[Side.R], "replicated_s": m.repl[Side.S],
                "joinable_r": m.joinable_r, "joinable_s": m.joinable_s,
                "joinable_cells": m.joinable_cells,
                "candidates": candidates, "results": self._results,
            })
            totals = _KernelTotals(
                candidates,
                float(per_cell_cost.sum()),
                float(per_cell_cost.max(initial=0.0)),
                tuple(line[phase] for phase in WALL_PHASES),
            )
            self._kernel_cache[(method, kernel)] = totals
        return totals

    def predict(
        self,
        method: str,
        *,
        kernel: str = "plane_sweep",
        num_workers: int | None = None,
    ) -> CostPrediction:
        """Full prediction for one grid method.

        ``kernel`` prices the local-join phase under that kernel's
        candidate window; ``num_workers`` overrides the constructor's
        worker count (both makespans and the remote shuffle fraction
        depend on it).  The defaults reproduce the historical
        plane-sweep predictions exactly.

        Everything but the worker count is computed once a method and
        once a (method, kernel): the planner prices every worker count
        of a grid with scalar arithmetic.
        """
        cm = self.cm
        w = self.num_workers if num_workers is None else num_workers
        if w < 1:
            raise ValueError("num_workers must be >= 1")
        m = self._method_totals(method)
        k = self._kernel_totals(method, kernel)
        repl, records, shuffle_bytes = m.repl, m.records, m.shuffle_bytes
        results = self._results
        remote_fraction = (w - 1) / w
        remote_bytes = shuffle_bytes * remote_fraction

        construction = (
            (self.n_r + self.n_s) * cm.map_tuple_cost / w
            + records * cm.reduce_record_cost / w
            + remote_bytes * cm.remote_byte_cost / w
            + (shuffle_bytes - remote_bytes) * cm.local_byte_cost / w
            + m.bcast_payload * cm.local_byte_cost
            + cm.job_overhead
        )
        join = max(k.cost_sum / w, k.cost_max)
        join += results * cm.emit_cost / w

        return CostPrediction(
            method=method,
            kernel=kernel,
            workers=w,
            replicated_r=repl[Side.R],
            replicated_s=repl[Side.S],
            shuffle_records=records,
            shuffle_bytes=shuffle_bytes,
            remote_bytes=remote_bytes,
            results=results,
            candidates=k.candidates,
            construction_time=construction,
            join_time=join,
            launch_time=w * cm.task_launch_cost,
            n_r=self.n_r,
            n_s=self.n_s,
            cells=self.grid.num_cells,
            joinable_r=m.joinable_r,
            joinable_s=m.joinable_s,
            joinable_cells=m.joinable_cells,
            wall_phases=tuple(none + each * w for none, each in k.wall),
        )


def _build_models(r, s, eps, sample_rate, num_workers, seed):
    """Sample once; build coarse (2 eps) and fine (eps) models lazily."""
    import numpy as np

    from repro.data.sampling import bernoulli_sample
    from repro.joins.local import grid_hash_join

    mbr = r.mbr().union(s.mbr())
    r_sample = bernoulli_sample(r, sample_rate, seed)
    s_sample = bernoulli_sample(s, sample_rate, seed + 1)

    # sample-join estimator of the result cardinality: the two samples
    # joined as one cell by the production kernel (the exact predicate)
    sample_results = len(
        grid_hash_join(
            r_sample.ids, r_sample.xs, r_sample.ys,
            s_sample.ids, s_sample.xs, s_sample.ys, eps,
        )[0]
    )

    # split each sample into decision and counting halves
    def halves(sample):
        mask = np.arange(len(sample)) % 2 == 0
        return sample.subset(mask), sample.subset(~mask)

    r_dec, r_cnt = halves(r_sample)
    s_dec, s_cnt = halves(s_sample)

    def build(factor: float) -> AnalyticalCostModel:
        grid = Grid(mbr, eps, resolution_factor=factor)
        decision = GridStatistics(grid)
        decision.add_points(r_dec.xs, r_dec.ys, Side.R)
        decision.add_points(s_dec.xs, s_dec.ys, Side.S)
        counting = GridStatistics(grid)
        counting.add_points(r_cnt.xs, r_cnt.ys, Side.R)
        counting.add_points(s_cnt.xs, s_cnt.ys, Side.S)
        return AnalyticalCostModel(
            grid, decision, sample_rate / 2,
            n_r=len(r), n_s=len(s),
            record_bytes_r=r.record_bytes, record_bytes_s=s.record_bytes,
            num_workers=num_workers,
            count_stats=counting, count_rate=sample_rate / 2,
            sample_results=sample_results, sample_results_rate=sample_rate,
        )

    return build


def predict_join(
    r,
    s,
    eps: float,
    method: str = "lpib",
    sample_rate: float = 0.03,
    num_workers: int = 12,
    seed: int = 0,
) -> CostPrediction:
    """Sample two point sets and predict one method's cost.

    Decisions and counts use independent sample halves (bias-corrected);
    the eps-grid method is predicted on its own finer grid.
    """
    build = _build_models(r, s, eps, sample_rate, num_workers, seed)
    model = build(1.0 if method == "eps_grid" else 2.0)
    return model.predict(method)
