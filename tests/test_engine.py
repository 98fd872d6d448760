"""Unit tests for the simulated cluster, shuffle accounting and the LPT
scheduler."""

import heapq
import importlib
import math

import numpy as np
import pytest

from repro.engine.cluster import SimCluster
from repro.engine.lpt import lpt_assignment
from repro.engine.metrics import CostModel, JoinMetrics, PhaseTimer
from repro.engine.shuffle import ShuffleStats, input_splits, read_seconds
from repro.joins.pipeline import lpt_partitioner


def reference_lpt(costs: dict, num_partitions: int) -> dict:
    """The dict-based LPT the array version replaced: keys by descending
    cost (ties by key), each to the least-loaded partition (ties by
    partition index)."""
    heap = [(0.0, p) for p in range(num_partitions)]
    heapq.heapify(heap)
    assignment = {}
    for key, cost in sorted(costs.items(), key=lambda kv: (-kv[1], kv[0])):
        load, part = heapq.heappop(heap)
        assignment[key] = part
        heapq.heappush(heap, (load + cost, part))
    return assignment


def reference_placement(costs: np.ndarray, num_workers: int) -> np.ndarray:
    """``lpt_partitioner``'s placement through the reference: LPT over the
    cells with a positive cost, ``cell % W`` for the rest."""
    placed = {int(c): float(costs[c]) for c in np.flatnonzero(costs > 0)}
    table = reference_lpt(placed, num_workers)
    return np.array(
        [table.get(c, c % num_workers) for c in range(len(costs))], dtype=np.int64
    )


def loads(costs, workers, n_parts):
    return np.bincount(workers, weights=costs, minlength=n_parts)


class TestLPT:
    def test_balances_better_than_hash(self):
        rng = np.random.default_rng(0)
        costs = rng.zipf(1.6, 60).astype(float)
        n_parts = 6
        lpt = lpt_assignment(costs, n_parts)
        hashed = np.arange(len(costs)) % n_parts
        assert loads(costs, lpt, n_parts).max() <= loads(costs, hashed, n_parts).max()

    def test_classic_approximation_instance(self):
        # LPT yields 10 here while the optimum is 9 ({5,4} vs {3,3,3}) --
        # within the classic 4/3 - 1/(3m) bound.
        costs = np.array([5.0, 4.0, 3.0, 3.0, 3.0])
        makespan = loads(costs, lpt_assignment(costs, 2), 2).max()
        assert makespan == 10.0
        assert makespan <= 9.0 * (4 / 3 - 1 / 6)

    def test_deterministic(self):
        costs = np.arange(40) % 7.0
        assert np.array_equal(lpt_assignment(costs, 4), lpt_assignment(costs, 4))

    def test_all_partitions_used_when_enough_keys(self):
        assert set(lpt_assignment(np.ones(20), 5).tolist()) == set(range(5))

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            lpt_assignment(np.ones(1), 0)

    def test_empty_costs(self):
        out = lpt_assignment(np.empty(0), 3)
        assert out.dtype == np.int64 and len(out) == 0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("workers", [1, 3, 12])
    def test_matches_the_dict_reference(self, seed, workers):
        """Same placement as the dict-based LPT, ties included: integer
        costs drawn from a few values tie often."""
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 5, 200) * rng.choice([1.0, 2.5, 1e6], 200)
        expected = reference_lpt(dict(enumerate(costs.tolist())), workers)
        assert lpt_assignment(costs, workers).tolist() == [
            expected[i] for i in range(len(costs))
        ]

    def test_partitioner_places_positive_costs_and_hashes_the_rest(self):
        costs = np.zeros(60)
        costs[[2, 17, 40]] = [3.0, 9.0, 3.0]
        workers = lpt_partitioner(costs, 5)
        assert workers.dtype == np.int64
        # by cost, then cell: 17 -> 0, 2 -> 1, 40 -> 2
        assert workers[[17, 2, 40]].tolist() == [0, 1, 2]
        rest = np.setdiff1d(np.arange(60), [2, 17, 40])
        assert np.array_equal(workers[rest], rest % 5)

    def test_partitioner_without_positive_costs_is_the_modulo(self):
        assert np.array_equal(lpt_partitioner(np.zeros(7), 3), np.arange(7) % 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_partitioner_matches_the_dict_reference(self, seed):
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 4, 300) * rng.choice([0.5, 7.0], 300)
        assert np.array_equal(lpt_partitioner(costs, 7), reference_placement(costs, 7))


class TestDriverPlacement:
    """Each driver's ``cell_workers`` is the dict reference's placement of
    the costs the driver estimated, over every cell of its grid."""

    @staticmethod
    def run_capturing(monkeypatch, module, name, run):
        """Run a driver, recording the costs it hands ``module.name`` and
        the ``cell_workers`` its shuffle reads."""
        from repro.joins import pipeline

        seen = {}
        placer = getattr(module, name)

        def spy(costs, num_workers):
            seen["costs"] = np.array(costs, dtype=np.float64)
            return placer(costs, num_workers)

        def shuffle(stage, ctx):
            seen["cell_workers"] = ctx.data["cell_workers"]
            seen["cells"] = ctx.metrics.grid_cells
            return shuffle_run(stage, ctx)

        shuffle_run = pipeline.ShuffleStage.run
        monkeypatch.setattr(module, name, spy)
        monkeypatch.setattr(pipeline.ShuffleStage, "run", shuffle)
        run()
        assert seen["cell_workers"].dtype == np.int64
        assert len(seen["cell_workers"]) == seen["cells"]
        return seen

    @pytest.mark.parametrize("method", ["lpib", "diff", "uni_r", "eps_grid"])
    def test_distance_join(self, monkeypatch, method):
        from repro.data.generators import uniform
        driver = importlib.import_module("repro.joins.distance_join")

        r, s = uniform(3_000, seed=3), uniform(3_000, seed=4)
        cfg = driver.JoinConfig(eps=0.02, method=method, sample_rate=0.3, num_workers=7)
        seen = self.run_capturing(
            monkeypatch, driver, "lpt_partitioner", lambda: driver.distance_join(r, s, cfg)
        )
        assert np.count_nonzero(seen["costs"]) > 7
        assert np.array_equal(seen["cell_workers"], reference_placement(seen["costs"], 7))

    def test_distance_join_hash(self, monkeypatch):
        from repro.data.generators import uniform
        driver = importlib.import_module("repro.joins.distance_join")

        r, s = uniform(2_000, seed=3), uniform(2_000, seed=4)
        cfg = driver.JoinConfig(
            eps=0.02, num_workers=5, cell_assignment="hash", num_partitions=23
        )
        seen = self.run_capturing(
            monkeypatch, driver, "lpt_partitioner", lambda: driver.distance_join(r, s, cfg)
        )
        assert "costs" not in seen
        cells = np.arange(seen["cells"])
        assert np.array_equal(seen["cell_workers"], cells % 23 % 5)

    def test_object_join(self, monkeypatch):
        from repro.data.object_generators import random_boxes
        from repro.geometry.point import Side
        driver = importlib.import_module("repro.joins.object_join")

        r = driver.ObjectSet(random_boxes(400, Side.R, seed=11))
        s = driver.ObjectSet(random_boxes(400, Side.S, seed=22))
        monkeypatch.setattr(driver, "SAMPLE_RATE", 1.0)
        seen = self.run_capturing(
            monkeypatch, driver, "lpt_partitioner",
            lambda: driver.object_distance_join(r, s, 0.01, num_workers=5),
        )
        assert np.count_nonzero(seen["costs"]) > 5
        assert np.array_equal(seen["cell_workers"], reference_placement(seen["costs"], 5))

    @pytest.mark.parametrize("partition", ["quadtree", "grid"])
    def test_generalized_join(self, monkeypatch, partition):
        from repro.data.generators import gaussian_clusters
        driver = importlib.import_module("repro.joins.generalized_join")

        r, s = gaussian_clusters(3_000, seed=5), gaussian_clusters(3_000, seed=6)
        cfg = driver.GeneralizedJoinConfig(eps=0.02, partition=partition, num_workers=6)
        seen = self.run_capturing(
            monkeypatch, driver, "lpt_assignment",
            lambda: driver.generalized_distance_join(r, s, cfg),
        )
        # every leaf is placed by LPT, zero-cost leaves too
        costs = seen["costs"]
        assert len(costs) == seen["cells"] and (costs == 0).any()
        table = reference_lpt(dict(enumerate(costs.tolist())), 6)
        assert seen["cell_workers"].tolist() == [table[i] for i in range(len(costs))]


class TestShuffleStats:
    def test_add_transfers(self):
        s = ShuffleStats()
        src = np.array([0, 0, 1, 2])
        dst = np.array([0, 1, 1, 0])
        s.add_transfers(src, dst, record_bytes=10, num_workers=3)
        assert s.records == 4
        assert s.bytes == 40
        assert s.remote_records == 2
        assert s.remote_bytes == 20

    @pytest.mark.parametrize("sized", [False, True], ids=["scalar", "per-record"])
    @pytest.mark.parametrize("n", [0, 1, 500])
    def test_add_transfers_equals_per_record_accounting(self, sized, n):
        """Totals and matrix off one bincount == ``add_single`` per record."""
        rng = np.random.default_rng(n)
        W = 5
        src, dst = rng.integers(0, W, n), rng.integers(0, W, n)
        sizes = rng.integers(1, 10**6, n) if sized else 24
        batch, single = ShuffleStats(), ShuffleStats()
        batch.enable_matrix(W)
        single.enable_matrix(W)
        counts, volume = batch.add_transfers(src, dst, sizes, W)
        for i in range(n):
            single.add_single(int(src[i]), int(dst[i]), int(sizes[i]) if sized else 24)
        totals = ("records", "bytes", "remote_records", "remote_bytes")
        for name in totals:
            assert getattr(batch, name) == getattr(single, name), name
            assert type(getattr(batch, name)) is int, name
        assert np.array_equal(batch.matrix, single.matrix)
        assert np.array_equal(volume, single.matrix)
        assert counts.sum() == n and counts.shape == (W, W)

    @pytest.mark.parametrize("seed", range(5))
    def test_read_seconds_is_the_per_record_sum(self, seed):
        """The closed-form read price == an exact sum of every record's own
        price (remote or local bytes, plus the per-record cost), for
        per-record sizes as an object join ships them."""
        rng = np.random.default_rng(seed)
        W, n = 6, 2_000
        src, dst = rng.integers(0, W, n), rng.integers(0, W, n)
        sizes = rng.integers(24, 10**5, n)
        cm = CostModel()
        counts, volume = ShuffleStats().add_transfers(src, dst, sizes, W)
        got = read_seconds(counts, volume, cm, cm.reduce_record_cost)
        for w in range(W):
            exact = math.fsum(
                int(b) * (cm.remote_byte_cost if s != w else cm.local_byte_cost)
                + cm.reduce_record_cost
                for s, b in zip(src[dst == w], sizes[dst == w])
            )
            assert got[w] == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [0, 1, 11, 12, 13, 1001])
    def test_input_splits_are_contiguous_chunks(self, n):
        """Tuple ``i`` maps on worker ``i * W // n``; the counts in closed
        form are that mapping's histogram."""
        W = 12
        workers, counts = input_splits(np.arange(n), n, W)
        assert np.array_equal(workers, np.arange(n) * W // max(n, 1))
        assert np.array_equal(counts, np.bincount(workers, minlength=W))

    def test_add_single(self):
        s = ShuffleStats()
        s.add_single(0, 0, 5)
        s.add_single(0, 1, 5)
        assert (s.records, s.remote_records) == (2, 1)
        assert (s.bytes, s.remote_bytes) == (10, 5)

    def test_merge(self):
        a, b = ShuffleStats(), ShuffleStats()
        a.add_single(0, 1, 7)
        b.add_single(1, 1, 3)
        a.merge(b)
        assert a.records == 2
        assert a.bytes == 10
        assert a.remote_bytes == 7


class TestSimCluster:
    def test_makespan_is_max(self):
        c = SimCluster(3)
        c.add_cost(0, "join", 1.0)
        c.add_cost(1, "join", 5.0)
        c.add_cost(1, "map", 2.0)
        assert c.phase_makespan("join") == 5.0
        assert c.phase_makespan("join", "map") == 7.0
        assert c.phase_loads("join") == [1.0, 5.0, 0.0]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimCluster(0)


class TestMetrics:
    def test_replicated_total(self):
        m = JoinMetrics(replicated_r=3, replicated_s=4)
        assert m.replicated_total == 7

    def test_exec_time_model(self):
        m = JoinMetrics(construction_time_model=1.5, join_time_model=2.5)
        assert m.exec_time_model == 4.0

    def test_selectivity(self):
        m = JoinMetrics(input_r=100, input_s=200, results=50)
        assert m.selectivity == pytest.approx(50 / 20000)
        assert JoinMetrics().selectivity == 0.0

    def test_summary_contains_key_fields(self):
        m = JoinMetrics(method="lpib", results=10)
        assert "lpib" in m.summary()

    def test_phase_timer(self):
        t = PhaseTimer()
        t.start("a")
        t.start("b")  # implicitly stops "a"
        t.stop()
        assert set(t.phases) == {"a", "b"}
        assert t.total() >= 0

    def test_cost_model_frozen(self):
        cm = CostModel()
        with pytest.raises(AttributeError):
            cm.compare_cost = 1.0

    def test_wall_total(self):
        m = JoinMetrics(wall_times={"a": 1.0, "b": 0.5})
        assert m.wall_total == pytest.approx(1.5)

    def test_marking_report_merge(self):
        from repro.agreements.marking import MarkingReport

        a = MarkingReport(quartets=1, mixed_triangles=2, marked_edges=1)
        b = MarkingReport(quartets=2, mixed_triangles=1, repaired_triangles=1)
        a.merge(b)
        assert (a.quartets, a.mixed_triangles, a.marked_edges, a.repaired_triangles) == (
            3, 3, 1, 1,
        )
