"""Unit tests for the simulated cluster, shuffle accounting, partitioners
and the LPT scheduler."""

import math

import numpy as np
import pytest

from repro.engine.cluster import SimCluster
from repro.engine.lpt import lpt_assignment, makespan
from repro.engine.metrics import CostModel, JoinMetrics, PhaseTimer
from repro.engine.partitioner import ExplicitPartitioner, HashPartitioner
from repro.engine.shuffle import ShuffleStats, input_splits, read_seconds


class TestHashPartitioner:
    def test_range(self):
        p = HashPartitioner(7)
        assert all(0 <= p.of(k) < 7 for k in range(100))

    def test_vectorized_matches_scalar(self):
        p = HashPartitioner(13)
        keys = np.arange(200, dtype=np.int64)
        assert (p.of_array(keys) == [p.of(int(k)) for k in keys]).all()

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestExplicitPartitioner:
    def test_mapping_and_fallback(self):
        p = ExplicitPartitioner({5: 2, 9: 0}, 4)
        assert p.of(5) == 2
        assert p.of(9) == 0
        assert p.of(6) == 6 % 4  # fallback

    def test_vectorized_matches_scalar(self):
        p = ExplicitPartitioner({2: 3, 17: 1, 40: 0}, 5)
        keys = np.arange(60, dtype=np.int64)
        assert (p.of_array(keys) == [p.of(int(k)) for k in keys]).all()

    @pytest.mark.parametrize("assignment", [{2: 3, 17: 1, 40: 0}, {}])
    @pytest.mark.parametrize(
        "keys",
        [
            np.array([2, 17, 40, 3, 0]),  # all inside the dense table
            np.array([41, 10**9, 2**40]),  # all beyond it: hash fall-back
            np.array([], dtype=np.int64),
        ],
        ids=["inside", "beyond", "empty"],
    )
    def test_dense_table_matches_scalar_of(self, assignment, keys):
        p = ExplicitPartitioner(assignment, 5)
        assert p.assignment == assignment
        out = p.of_array(keys.astype(np.int64))
        assert out.tolist() == [p.of(int(k)) for k in keys]

    def test_lookup_does_not_read_the_dict(self):
        p = ExplicitPartitioner({2: 3, 17: 1}, 5)
        p.assignment = None  # compiled at construction
        assert p.of_array(np.array([2, 17, 3, 99])).tolist() == [3, 1, 3, 4]

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPartitioner({1: 9}, 4)

    def test_empty_assignment(self):
        p = ExplicitPartitioner({}, 3)
        keys = np.array([0, 1, 5], dtype=np.int64)
        assert (p.of_array(keys) == keys % 3).all()

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ExplicitPartitioner({-1: 0}, 4)


class TestLPT:
    def test_balances_better_than_hash(self):
        rng = np.random.default_rng(0)
        costs = {i: float(c) for i, c in enumerate(rng.zipf(1.6, 60))}
        n_parts = 6
        lpt = lpt_assignment(costs, n_parts)
        hash_assign = {k: k % n_parts for k in costs}
        assert max(makespan(costs, lpt, n_parts)) <= max(
            makespan(costs, hash_assign, n_parts)
        )

    def test_classic_approximation_instance(self):
        # LPT yields 10 here while the optimum is 9 ({5,4} vs {3,3,3}) --
        # within the classic 4/3 - 1/(3m) bound.
        costs = {0: 5.0, 1: 4.0, 2: 3.0, 3: 3.0, 4: 3.0}
        loads = makespan(costs, lpt_assignment(costs, 2), 2)
        assert max(loads) == 10.0
        assert max(loads) <= 9.0 * (4 / 3 - 1 / 6)

    def test_deterministic(self):
        costs = {i: float(i % 7) for i in range(40)}
        assert lpt_assignment(costs, 4) == lpt_assignment(costs, 4)

    def test_all_partitions_used_when_enough_keys(self):
        costs = {i: 1.0 for i in range(20)}
        assert set(lpt_assignment(costs, 5).values()) == set(range(5))

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            lpt_assignment({0: 1.0}, 0)

    def test_empty_costs(self):
        assert lpt_assignment({}, 3) == {}


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

    def test_reset(self):
        c = SimCluster(2)
        c.add_cost(0, "join", 1.0)
        c.reset()
        assert c.phase_makespan("join") == 0.0

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
