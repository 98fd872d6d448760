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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.agreements.policies import DiffPolicy, LPiBPolicy
from repro.core.wall_model import PRICEABLE_KERNELS, WALL_PHASES, wall_line
from repro.engine.metrics import COST_MODEL
from repro.engine.shuffle import KEY_BYTES
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import CandidateRows, GridStatistics
from repro.joins.distance_join import JoinConfig


#: The two clocks a prediction carries: the paper's cluster makespan and
#: the wall of a ``serial`` run (:mod:`repro.core.wall_model`).
CLOCKS = ("modelled", "wall")

#: Methods a model prices together, in one set of array operations: the
#: four the planner compares on every candidate grid, and the eps-grid
#: baseline, which it prices on a grid of its own.
_PRICED_TOGETHER = (("lpib", "diff", "uni_r", "uni_s"), ("eps_grid",))


def _priced_with(method: str) -> tuple[str, ...]:
    return next((group for group in _PRICED_TOGETHER if method in group), (method,))


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
    launch_time: float
    #: Local-join kernel the candidate count was priced for (the
    #: planner's kernel dimension).
    kernel: str
    #: Worker count the makespans were priced for.
    workers: int
    #: Input cardinalities and grid size the prediction is about -- with
    #: the counts above, everything :func:`repro.core.wall_model.wall_terms`
    #: reads (:meth:`quantities`).
    n_r: int
    n_s: int
    cells: int
    #: Records (natives + replicas) in cells holding *both* inputs, and
    #: the number of such cells: only those are joined, a cell with one
    #: side present costs the local join nothing.
    joinable_r: float
    joinable_s: float
    joinable_cells: int
    #: Predicted ``serial`` wall seconds per
    #: :data:`~repro.core.wall_model.WALL_PHASES` phase -- the second clock
    #: over the same quantities: what a caller of the ``serial`` backend
    #: waits for, where the modelled times above are the paper's cluster.
    wall_phases: tuple[float, ...]

    @classmethod
    def _of(cls, fields: dict) -> "CostPrediction":
        """The prediction holding ``fields`` (every field: none has a
        default), built without the generated ``__init__``:
        :meth:`AnalyticalCostModel.predict` makes one per planner
        candidate, and a frozen dataclass's ``__init__`` (a guarded
        ``setattr`` per field) was most of it."""
        prediction = object.__new__(cls)
        prediction.__dict__.update(fields)
        return prediction

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


class _GridPass(NamedTuple):
    """What every method priced on one grid shares."""

    natives: np.ndarray  # (2, cells): sampled points of R, S scaled to full data
    near: np.ndarray  # (2, cells): presence of R, S (see _grid_pass)
    joinable_cells: int
    rows: CandidateRows  # the counting sample's nonzero directed candidates
    targets: np.ndarray  # per row, its head's flat index into a (2, cells) table


class _MethodTotals(NamedTuple):
    """What a method's predictions share across kernels and worker counts."""

    counts: np.ndarray  # (2, cells): populations of R, S after replication
    bcast_payload: float
    fields: dict  # the CostPrediction fields no kernel or worker count changes


class _KernelTotals(NamedTuple):
    """What a (method, kernel)'s predictions share across worker counts."""

    bcast_payload: float
    cost_sum: float  # modelled compare cost, all cells
    cost_max: float  # ... of the hottest cell
    wall: tuple  # per WALL_PHASES phase: (seconds at no worker, per worker)
    fields: dict  # the CostPrediction fields no worker count changes


class AnalyticalCostModel:
    """Predicts the cost of every grid method from sample statistics.

    The array work is done once a grid (:attr:`_grid_pass`), once a method
    and once a (method, kernel); :meth:`predict` prices each worker count
    of those with scalar arithmetic.
    """

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
        #: result count of joining the two samples, for the unbiased
        #: sample-join cardinality estimator (optional).
        self.sample_results = sample_results
        self.sample_results_rate = sample_results_rate or sample_rate
        self._method_cache: dict[str, _MethodTotals] = {}
        self._kernel_cache: dict[tuple[str, str], _KernelTotals] = {}

    # ------------------------------------------------------------------
    # the per-grid pass
    # ------------------------------------------------------------------
    @functools.cached_property
    def _grid_pass(self) -> _GridPass:
        """Natives, presence and the nonzero directed candidate counts.

        *Presence*: only cells holding both inputs are joined, so the local
        join pays for the records of those cells alone.  A thresholded
        sample count misses most sparse cells (1.5% of 30 points is none,
        half the time); both sample halves together, spread to the four
        edge neighbours, see 0.8-1.1 of the truly joinable records of
        inputs that cover each other and stay within ~3x on disjoint
        clusters.

        *Candidates*: a pair carries replicas only from a cell holding
        counted candidates towards the other, so every method's inflow is
        read off those rows (:meth:`GridStatistics.candidate_rows`), not
        off every adjacent pair of the grid.
        """
        counted = self.count_stats.cell_count_table()
        here = (self.stats.cell_count_table() + counted).reshape(
            2, self.grid.ny, self.grid.nx
        ) > 0
        near = here.copy()
        near[:, 1:] |= here[:, :-1]
        near[:, :-1] |= here[:, 1:]
        near[:, :, 1:] |= here[:, :, :-1]
        near[:, :, :-1] |= here[:, :, 1:]
        near = near.reshape(2, -1)
        rows = self.count_stats.candidate_rows()
        targets = rows.head.copy()
        targets[rows.num_r:] += self.grid.num_cells
        return _GridPass(
            natives=counted / self.count_phi,
            near=near,
            joinable_cells=int(np.count_nonzero(near[0] & near[1])),
            rows=rows,
            targets=targets,
        )

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

    def _carried(self, method: str) -> tuple[np.ndarray, np.ndarray]:
        """The candidate rows the method replicates: each row's index into a
        ``(2, cells)`` table (its input, its head cell) and its count.

        Universally a whole input's rows are replicated, adaptively each
        row whose pair agreed on its input.  Agreement decisions come from
        ``stats``, counts from ``count_stats`` (see *Selection bias* above).
        """
        g = self._grid_pass
        rows = g.rows
        policy = {"lpib": LPiBPolicy, "diff": DiffPolicy}.get(method)
        if policy is None:
            replicated = self._replicated_side(method)
            carried = (
                slice(0, 0) if replicated is None
                else slice(0, rows.num_r) if replicated is Side.R
                else slice(rows.num_r, None)
            )
            return g.targets[carried], rows.count[carried]
        agreed_r = policy().decide_pairs(self.stats, rows.pairs)
        agreed_r[rows.num_r:] ^= True  # an S row is carried where S was agreed
        return g.targets.compress(agreed_r), rows.count.compress(agreed_r)

    # ------------------------------------------------------------------
    # headline predictions
    # ------------------------------------------------------------------
    @functools.cached_property
    def _results(self) -> float:
        """:meth:`predicted_results`, which every prediction carries."""
        return self.predicted_results()

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
        replicated_r = self._method_totals("uni_r").counts[0]
        # Use the UNI(R) population: every R point within eps of a border
        # is present wherever its partners are, so per-cell products of
        # (replicated R) x (native S) cover cross-border pairs once.
        native_s = self._grid_pass.natives[1]
        return float(np.sum(replicated_r * native_s) * match_prob)

    # ------------------------------------------------------------------
    # per-choice clocks: kernel-specific candidate windows
    # ------------------------------------------------------------------
    def _kernel_candidates(self, kernel: str, counts: np.ndarray) -> np.ndarray:
        """Per-cell expected candidate pairs under the chosen kernel, for
        ``(..., 2, cells)`` post-replication populations of R and S.

        Each local kernel inspects a different fraction of the per-cell
        cross product, and the engine charges ``compare_cost`` per
        *inspected* candidate -- so the kernel choice moves the modelled
        join clock.  The windows are calibrated from the sampled grid
        statistics under within-cell uniformity:

        * ``plane_sweep`` inspects the edge-clipped x-window
          ``(2 eps - eps^2 / w) / w`` (the historical model).
        * ``grid_hash`` probes three ``eps``-bands with sorted-x windows:
          ``3 eps`` tall times a mean band width of ``(2 + pi) eps / 3``,
          i.e. ``(2 + pi) eps^2`` around each point.  Between two natives
          of the cell the window is clipped to the cell; a pair that
          straddles the border is inspected here only when its outside
          end was replicated in, so that share of the window is weighted
          by each side's replicas per unit of the ``eps``-rim.
        """
        eps = self.grid.eps
        cw, ch = self.grid.cell_w, self.grid.cell_h
        n_r, n_s = counts[..., 0, :], counts[..., 1, :]
        if kernel == "plane_sweep":
            window = min(1.0, max(0.0, (2 * eps - eps * eps / cw) / cw))
            return n_r * n_s * window
        if kernel == "grid_hash":
            ax, ay = (2.0 + math.pi) * eps / 6.0, 1.5 * eps  # window half-extents
            cell = cw * ch
            # pairs in the window with both ends / exactly one end in the cell
            inside = (
                min(cw, 2 * ax - ax * ax / cw) * min(ch, 2 * ay - ay * ay / ch) * cell
            )
            straddle = 4 * ax * ay * cell - inside
            rim = (cw + 2 * eps) * (ch + 2 * eps) - cell
            nat_r, nat_s = self._grid_pass.natives
            crossing = (n_r - nat_r) * nat_s + nat_r * (n_s - nat_s)
            return (nat_r * nat_s * inside + crossing * straddle * cell / rim) / cell**2
        raise ValueError(
            f"unpriceable kernel {kernel!r}; choose from {PRICEABLE_KERNELS}"
        )

    def _method_totals(self, method: str) -> _MethodTotals:
        """Everything a method's prediction needs that no kernel or worker
        count changes: replication, shuffle volume, broadcast payload, the
        per-cell populations after replication and the joinable records."""
        if method not in self._method_cache:
            self._price_methods(_priced_with(method))
        return self._method_cache[method]

    def _price_methods(self, methods: tuple[str, ...]) -> None:
        """:meth:`_method_totals` of several methods in one set of array
        operations over a ``(methods, 2, cells)`` table."""
        from repro.engine.broadcast import grid_broadcast_bytes

        g = self._grid_pass
        n = self.grid.num_cells
        scale = 1.0 / self.count_phi
        carried = [self._carried(method) for method in methods]
        inflow = np.bincount(
            np.concatenate([targets + 2 * n * i for i, (targets, _) in enumerate(carried)]),
            weights=np.concatenate([weights for _, weights in carried]),
            minlength=2 * n * len(methods),
        ).reshape(len(methods), 2, n)
        counts = (self.count_stats.cell_count_table() + inflow) * scale
        # whole numbers, so any summation order is exact
        replicated = (inflow.sum(axis=2) * scale).tolist()
        # compress selects as a mask index does, faster; each row is summed
        # as the contiguous (cells,) array one method's alone would be
        joinable_r = counts[:, 0].compress(g.near[1], axis=1).sum(axis=1).tolist()
        joinable_s = counts[:, 1].compress(g.near[0], axis=1).sum(axis=1).tolist()
        bytes_r, bytes_s = (KEY_BYTES + self.record_bytes[side] for side in Side)
        for i, method in enumerate(methods):
            repl_r, repl_s = replicated[i]
            # broadcast payload: bare grid for PBSM; grid + agreements for the
            # adaptive methods (sizes depend only on the grid shape)
            bcast_payload = grid_broadcast_bytes(self.grid)
            if method in ("lpib", "diff"):
                quartets = max(self.grid.nx - 1, 0) * max(self.grid.ny - 1, 0)
                bcast_payload += (
                    quartets * (32 + 12 * 24) + self.grid.num_adjacent_pairs * 12
                )
            self._method_cache[method] = _MethodTotals(counts[i], bcast_payload, {
                "method": method,
                "replicated_r": repl_r,
                "replicated_s": repl_s,
                "shuffle_records": self.n_r + self.n_s + repl_r + repl_s,
                "shuffle_bytes": (self.n_r + repl_r) * bytes_r + (self.n_s + repl_s) * bytes_s,
                "n_r": self.n_r,
                "n_s": self.n_s,
                "cells": n,
                "joinable_r": joinable_r[i],
                "joinable_s": joinable_s[i],
                "joinable_cells": g.joinable_cells,
            })

    def _kernel_totals(self, method: str, kernel: str) -> _KernelTotals:
        """A (method, kernel)'s candidate sum, modelled cost sum and hottest
        cell, and its wall phases as lines in the worker count."""
        if (method, kernel) not in self._kernel_cache:
            self._price_kernel(_priced_with(method), kernel)
        return self._kernel_cache[method, kernel]

    def _price_kernel(self, methods: tuple[str, ...], kernel: str) -> None:
        """:meth:`_kernel_totals` of several methods under one kernel, in one
        set of array operations over their stacked populations."""
        totals = [self._method_totals(method) for method in methods]
        per_cell_candidates = self._kernel_candidates(
            kernel, np.stack([m.counts for m in totals])
        )
        per_cell_cost = per_cell_candidates * COST_MODEL.compare_cost
        # each row summed as the contiguous (cells,) array one method's is
        candidates = per_cell_candidates.sum(axis=1).tolist()
        cost_sum = per_cell_cost.sum(axis=1).tolist()
        cost_max = per_cell_cost.max(axis=1, initial=0.0).tolist()
        for i, (method, m) in enumerate(zip(methods, totals)):
            fields = {
                **m.fields,
                "kernel": kernel,
                "candidates": candidates[i],
                "results": self._results,
            }
            line = wall_line(fields)  # the fields carry every wall quantity
            self._kernel_cache[method, kernel] = _KernelTotals(
                m.bcast_payload,
                cost_sum[i],
                cost_max[i],
                tuple(line[phase] for phase in WALL_PHASES),
                fields,
            )

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
        cm = COST_MODEL
        w = self.num_workers if num_workers is None else num_workers
        if w < 1:
            raise ValueError("num_workers must be >= 1")
        k = self._kernel_totals(method, kernel)
        records, shuffle_bytes = k.fields["shuffle_records"], k.fields["shuffle_bytes"]
        remote_fraction = (w - 1) / w
        remote_bytes = shuffle_bytes * remote_fraction

        construction = (
            (self.n_r + self.n_s) * cm.map_tuple_cost / w
            + records * cm.reduce_record_cost / w
            + remote_bytes * cm.remote_byte_cost / w
            + (shuffle_bytes - remote_bytes) * cm.local_byte_cost / w
            + k.bcast_payload * cm.local_byte_cost
            + cm.job_overhead
        )
        join = max(k.cost_sum / w, k.cost_max)
        join += self._results * cm.emit_cost / w

        return CostPrediction._of({
            **k.fields,
            "workers": w,
            "remote_bytes": remote_bytes,
            "construction_time": construction,
            "join_time": join,
            "launch_time": w * cm.task_launch_cost,
            "wall_phases": tuple([none + each * w for none, each in k.wall]),
        })


def _build_models(r, s, eps, sample_rate, num_workers, seed):
    """Sample once; build coarse (2 eps) and fine (eps) models lazily."""
    from repro.data.pointset import joint_mbr
    from repro.data.sampling import sample_pair
    from repro.joins.local import grid_hash_count

    mbr = joint_mbr(r, s)
    r_sample, s_sample = sample_pair(r, s, sample_rate, seed)

    # sample-join estimator of the result cardinality: the two samples
    # counted as one cell by the production kernel (the exact predicate)
    sample_results = grid_hash_count(
        r_sample.ids, r_sample.xs, r_sample.ys,
        s_sample.ids, s_sample.xs, s_sample.ys, eps,
    )

    # alternate points decide and count (see *Selection bias* above): the
    # decision half's R and S points, then the counting half's
    blocks = [(sample, half) for half in (0, 1) for sample in (r_sample, s_sample)]
    xs = np.concatenate([sample.xs[half::2] for sample, half in blocks])
    ys = np.concatenate([sample.ys[half::2] for sample, half in blocks])
    sizes = [(len(sample) + 1 - half) // 2 for sample, half in blocks]

    def build(factor: float) -> AnalyticalCostModel:
        grid = Grid(mbr, eps, resolution_factor=factor)
        decision, counting = GridStatistics.sample_halves(grid, xs, ys, sizes)
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
    method: str | None = None,
    sample_rate: float | None = None,
    num_workers: int | None = None,
    seed: int | None = None,
) -> CostPrediction:
    """Sample two point sets and predict one method's cost.

    Decisions and counts use independent sample halves (bias-corrected);
    the eps-grid method is predicted on its own finer grid.  A parameter
    left ``None`` takes the :class:`~repro.joins.distance_join.JoinConfig`
    default; candidates are priced for the ``plane_sweep`` kernel, as
    :meth:`AnalyticalCostModel.predict` does by default.
    """
    given = dict(
        method=method, sample_rate=sample_rate, num_workers=num_workers, seed=seed
    )
    cfg = JoinConfig(eps=eps, **{k: v for k, v in given.items() if v is not None})
    build = _build_models(r, s, eps, cfg.sample_rate, cfg.num_workers, cfg.seed)
    model = build(1.0 if cfg.method == "eps_grid" else cfg.resolution_factor)
    return model.predict(cfg.method)
