"""Tests for the distance-based query operators (kNN join, closest pairs,
self-join)."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.data.generators import gaussian_clusters, uniform
from repro.data.pointset import PointSet
from repro.joins.queries import closest_pairs, knn_join, self_join
from repro.verify.oracle import kdtree_pairs


@pytest.fixture(scope="module")
def sets():
    r = gaussian_clusters(800, seed=81, name="R")
    s = gaussian_clusters(1200, seed=82, name="S")
    return r, s


def oracle_knn(r, s, k):
    """Ground-truth kNN join via a KD-tree, ties broken by S id."""
    tree = cKDTree(np.column_stack([s.xs, s.ys]))
    out = {}
    for pid, x, y in r.iter_triples():
        dists, idx = tree.query([x, y], k=min(k, len(s)))
        dists = np.atleast_1d(dists)
        idx = np.atleast_1d(idx)
        ranked = sorted(
            (float(d), int(s.ids[j])) for d, j in zip(dists, idx)
        )
        out[pid] = ranked
    return out


@pytest.mark.parametrize("query", [knn_join, closest_pairs])
def test_an_empty_side_yields_no_pairs(query):
    empty, s = PointSet([], [], name="none"), uniform(200, seed=3)
    for a, b in ((empty, s), (s, empty), (empty, empty)):
        res = query(a, b, 3)
        assert len(res) == 0 and res.rounds == 0, (a.name, b.name)
    assert len(self_join(empty, 0.1)) == 0


class TestKnnJoin:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_oracle(self, sets, k):
        r, s = sets
        res = knn_join(r, s, k, sample_rate=0.2)
        truth = oracle_knn(r, s, k)
        got: dict[int, list] = {}
        for rid, sid, d in zip(res.r_ids, res.s_ids, res.distances):
            got.setdefault(int(rid), []).append((float(d), int(sid)))
        assert set(got) == set(truth)
        for pid, ranked in truth.items():
            mine = sorted(got[pid])
            assert len(mine) == len(ranked), pid
            # distances must agree exactly (ties may swap equal-distance ids)
            assert np.allclose([d for d, _ in mine], [d for d, _ in ranked]), pid

    def test_exactly_k_results_per_point(self, sets):
        r, s = sets
        res = knn_join(r, s, 4, sample_rate=0.2)
        counts = np.bincount(
            np.searchsorted(np.sort(r.ids), res.r_ids), minlength=len(r)
        )
        assert (counts == 4).all()

    def test_k_larger_than_s(self):
        r = uniform(30, seed=1, name="r")
        s = uniform(5, seed=2, name="s")
        res = knn_join(r, s, 50)
        assert len(res) == 30 * 5
        assert res.extra["k"] == 5

    def test_k_validation(self, sets):
        r, s = sets
        with pytest.raises(ValueError):
            knn_join(r, s, 0)

    def test_metrics_accumulate(self, sets):
        r, s = sets
        res = knn_join(r, s, 3, sample_rate=0.2)
        assert res.rounds >= 1
        assert res.exec_time_model > 0
        assert res.shuffle_bytes > 0


class TestClosestPairs:
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_matches_oracle(self, sets, k):
        r, s = sets
        res = closest_pairs(r, s, k, sample_rate=0.2)
        assert len(res) == k
        # oracle: k smallest pair distances
        tree = cKDTree(np.column_stack([s.xs, s.ys]))
        dists, _ = tree.query(np.column_stack([r.xs, r.ys]), k=min(k, len(s)))
        all_pairs = kdtree_pairs(
            list(r.iter_triples()), list(s.iter_triples()), float(res.distances.max()) + 1e-9
        )
        assert res.pairs_set() <= all_pairs
        # distances sorted ascending and globally minimal
        assert (np.diff(res.distances) >= -1e-12).all()
        brute = sorted(
            np.hypot(r.xs[i] - s.xs[j], r.ys[i] - s.ys[j])
            for i in range(len(r))
            for j in range(len(s))
        )[:k]
        assert np.allclose(np.sort(res.distances), brute)

    def test_expands_radius_when_estimate_too_small(self):
        # a single far-apart pair forces several expansion rounds
        r = uniform(200, seed=5, name="r")
        s = uniform(200, seed=6, name="s")
        res = closest_pairs(r, s, 150, sample_rate=0.5)
        assert len(res) == 150

    def test_validation(self, sets):
        r, s = sets
        with pytest.raises(ValueError):
            closest_pairs(r, s, 0)


class TestSelfJoin:
    def test_matches_oracle_unordered(self):
        pts = gaussian_clusters(600, seed=9, name="P")
        eps = 0.02
        res = self_join(pts, eps)
        triples = list(pts.iter_triples())
        truth = {
            (a, b)
            for a, b in kdtree_pairs(triples, triples, eps)
            if a < b
        }
        assert res.pairs_set() == truth

    def test_no_self_pairs(self):
        pts = uniform(200, seed=10, name="P")
        res = self_join(pts, 0.05)
        assert (res.r_ids != res.s_ids).all()
        assert (res.r_ids < res.s_ids).all()

    def test_distances_within_eps(self):
        pts = uniform(300, seed=11, name="P")
        res = self_join(pts, 0.04)
        assert (res.distances <= 0.04 + 1e-12).all()
