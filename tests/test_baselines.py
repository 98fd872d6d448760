"""Unit and integration tests for the QuadTree, R-tree and Sedona-like join."""

import numpy as np
import pytest

from repro.baselines.quadtree import QuadTreePartitioner
from repro.baselines.rtree import RTree
from repro.baselines.sedona_like import SedonaConfig, sedona_join
from repro.data.generators import gaussian_clusters, uniform
from repro.geometry.mbr import MBR
from repro.verify.oracle import kdtree_pairs


def cloud(n, seed, extent=10.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, extent, n), rng.uniform(0, extent, n)


class TestRTree:
    def test_envelope_query_matches_brute_force(self):
        xs, ys = cloud(300, 1)
        tree = RTree(xs, ys, leaf_capacity=8)
        rng = np.random.default_rng(2)
        for _ in range(25):
            x0, y0 = rng.uniform(0, 9, 2)
            rect = MBR(x0, y0, x0 + rng.uniform(0.1, 3), y0 + rng.uniform(0.1, 3))
            hits, inspected = tree.query_envelope(rect)
            brute = {
                i
                for i in range(300)
                if rect.xmin <= xs[i] <= rect.xmax and rect.ymin <= ys[i] <= rect.ymax
            }
            assert set(hits.tolist()) == brute
            assert inspected >= len(brute)

    def test_query_within_matches_brute_force(self):
        xs, ys = cloud(200, 3)
        tree = RTree(xs, ys)
        for x, y, eps in [(5, 5, 1.0), (0, 0, 2.0), (9.5, 3.3, 0.5)]:
            hits, _ = tree.query_within(x, y, eps)
            brute = {
                i
                for i in range(200)
                if (xs[i] - x) ** 2 + (ys[i] - y) ** 2 <= eps * eps
            }
            assert set(hits.tolist()) == brute

    def test_empty_tree(self):
        tree = RTree(np.empty(0), np.empty(0))
        hits, inspected = tree.query_envelope(MBR(0, 0, 1, 1))
        assert len(hits) == 0 and inspected == 0
        assert tree.height() == 0

    def test_single_point(self):
        tree = RTree(np.array([1.0]), np.array([2.0]))
        hits, _ = tree.query_envelope(MBR(0, 0, 3, 3))
        assert hits.tolist() == [0]

    def test_height_grows_logarithmically(self):
        xs, ys = cloud(1000, 4)
        tree = RTree(xs, ys, leaf_capacity=4)
        assert 3 <= tree.height() <= 7

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RTree(np.array([0.0]), np.array([0.0]), leaf_capacity=1)

    def test_mismatched_arrays(self):
        with pytest.raises(ValueError):
            RTree(np.array([0.0, 1.0]), np.array([0.0]))


class TestQuadTree:
    def test_leaves_tile_space(self):
        xs, ys = cloud(500, 5)
        qt = QuadTreePartitioner(MBR(0, 0, 10, 10), xs, ys, capacity=50)
        assert qt.num_leaves >= 4
        total_area = sum(leaf.mbr.area for leaf in qt._leaves)
        assert total_area == pytest.approx(100.0)

    def test_leaf_of_unique_and_consistent(self):
        xs, ys = cloud(400, 6)
        qt = QuadTreePartitioner(MBR(0, 0, 10, 10), xs, ys, capacity=40)
        probe_x, probe_y = cloud(200, 7)
        for x, y in zip(probe_x, probe_y):
            leaf = qt.leaf_of(float(x), float(y))
            assert qt._leaves[leaf].mbr.contains_point(float(x), float(y))

    def test_leaves_overlapping(self):
        xs, ys = cloud(400, 8)
        qt = QuadTreePartitioner(MBR(0, 0, 10, 10), xs, ys, capacity=40)
        rect = MBR(2, 2, 4, 4)
        overlapping = set(qt.leaves_overlapping(rect))
        for i, leaf in enumerate(qt._leaves):
            assert (i in overlapping) == leaf.mbr.intersects(rect)

    def test_no_split_below_capacity(self):
        xs, ys = cloud(10, 9)
        qt = QuadTreePartitioner(MBR(0, 0, 10, 10), xs, ys, capacity=50)
        assert qt.num_leaves == 1

    def test_max_depth_caps_splitting(self):
        xs = np.full(500, 5.0)
        ys = np.full(500, 5.0)
        qt = QuadTreePartitioner(MBR(0, 0, 10, 10), xs, ys, capacity=10, max_depth=3)
        assert qt.num_leaves <= 4**3

    def test_batch_matches_scalar(self):
        xs, ys = cloud(300, 10)
        qt = QuadTreePartitioner(MBR(0, 0, 10, 10), xs, ys, capacity=30)
        probe_x, probe_y = cloud(100, 11)
        batch = qt.leaf_of_batch(probe_x, probe_y)
        for i in range(100):
            assert batch[i] == qt.leaf_of(float(probe_x[i]), float(probe_y[i]))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            QuadTreePartitioner(MBR(0, 0, 1, 1), np.empty(0), np.empty(0), capacity=0)


class TestSamjRtreeJoin:
    EPS = 0.02

    @pytest.fixture(scope="class")
    def inputs(self):
        from repro.verify.oracle import kdtree_pairs

        r = gaussian_clusters(1200, seed=51, name="R")
        s = gaussian_clusters(1000, seed=52, name="S")
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), self.EPS)
        return r, s, truth

    def test_matches_oracle(self, inputs):
        from repro.baselines.rtree_join import SamjConfig, rtree_samj_join

        r, s, truth = inputs
        res = rtree_samj_join(r, s, SamjConfig(eps=self.EPS))
        assert res.pairs_set() == truth
        assert len(res) == len(truth)  # single assignment: duplicate-free

    def test_no_replication_but_multi_join_shipping(self, inputs):
        from repro.baselines.rtree_join import SamjConfig, rtree_samj_join

        r, s, _ = inputs
        m = rtree_samj_join(r, s, SamjConfig(eps=self.EPS)).metrics
        assert m.replicated_total == 0  # SAMJ: no point assigned twice
        # ... but subtrees are shipped to several tasks
        assert m.shuffle_records > len(r) + len(s)
        assert m.num_partitions >= 1

    def test_uniform_data(self):
        from repro.baselines.rtree_join import SamjConfig, rtree_samj_join
        from repro.verify.oracle import kdtree_pairs

        r = uniform(600, seed=53, name="u1")
        s = uniform(700, seed=54, name="u2")
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.03)
        res = rtree_samj_join(r, s, SamjConfig(eps=0.03))
        assert res.pairs_set() == truth

    def test_validation(self, inputs):
        from repro.baselines.rtree_join import SamjConfig, rtree_samj_join

        r, s, _ = inputs
        with pytest.raises(ValueError):
            rtree_samj_join(r, s, SamjConfig(eps=0.0))

    def test_leaf_capacity_sweep(self, inputs):
        from repro.baselines.rtree_join import SamjConfig, rtree_samj_join

        r, s, truth = inputs
        for cap in (4, 16, 128):
            res = rtree_samj_join(r, s, SamjConfig(eps=self.EPS, leaf_capacity=cap))
            assert res.pairs_set() == truth, cap


    def test_an_empty_side_yields_no_pairs(self):
        from repro.baselines.rtree_join import SamjConfig, rtree_samj_join
        from repro.data.pointset import PointSet

        empty, s = PointSet([], [], name="none"), uniform(200, seed=3)
        for a, b in ((empty, s), (s, empty), (empty, empty)):
            res = rtree_samj_join(a, b, SamjConfig(eps=self.EPS))
            assert len(res) == 0 and res.metrics.results == 0, (a.name, b.name)


class TestSedonaJoin:
    EPS = 0.02

    @pytest.fixture(scope="class")
    def inputs(self):
        r = gaussian_clusters(1000, seed=41, name="R")
        s = gaussian_clusters(1400, seed=42, name="S")
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), self.EPS)
        return r, s, truth

    def test_matches_oracle(self, inputs):
        r, s, truth = inputs
        res = sedona_join(r, s, SedonaConfig(eps=self.EPS))
        assert res.pairs_set() == truth
        assert len(res) == len(truth)  # build side single-assigned: no dupes

    def test_swapped_sizes_still_correct(self, inputs):
        r, s, truth = inputs
        res = sedona_join(s, r, SedonaConfig(eps=self.EPS))
        assert {(b, a) for a, b in res.pairs_set()} == truth

    def test_smaller_side_is_replicated(self, inputs):
        r, s, _ = inputs  # |r| < |s|
        m = sedona_join(r, s, SedonaConfig(eps=self.EPS)).metrics
        assert m.replicated_r >= 0
        assert m.replicated_s == 0

    def test_uniform_data(self):
        r = uniform(500, seed=12, name="u1")
        s = uniform(600, seed=13, name="u2")
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.04)
        res = sedona_join(r, s, SedonaConfig(eps=0.04))
        assert res.pairs_set() == truth

    def test_metrics_populated(self, inputs):
        r, s, _ = inputs
        m = sedona_join(r, s, SedonaConfig(eps=self.EPS)).metrics
        assert m.method == "sedona"
        assert m.shuffle_records >= len(r) + len(s)
        assert m.candidate_pairs >= m.results
        assert m.construction_time_model > 0
        assert m.join_time_model > 0

    def test_more_partitions_more_replication(self, inputs):
        r, s, _ = inputs
        few = sedona_join(r, s, SedonaConfig(eps=self.EPS, target_partitions=8)).metrics
        many = sedona_join(
            r, s, SedonaConfig(eps=self.EPS, target_partitions=128)
        ).metrics
        assert many.replicated_total >= few.replicated_total
