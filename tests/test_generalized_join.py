"""Integration and property tests for the generalized (partition-agnostic)
adaptive join -- the paper's QuadTree future-work item."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.joins.generalized_join as generalized_join
from repro.data.generators import gaussian_clusters, real_like, uniform
from repro.joins.generalized_join import (
    GeneralizedJoinConfig,
    generalized_distance_join,
)
from repro.verify.oracle import kdtree_pairs

EPS = 0.015


@pytest.fixture(scope="module")
def inputs():
    r = gaussian_clusters(2000, seed=101, name="R")
    s = real_like(2000, seed=11, name="S")
    truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), EPS)
    return r, s, truth


class TestCorrectness:
    @pytest.mark.parametrize("partition", ["grid", "quadtree"])
    @pytest.mark.parametrize("method", ["lpib", "diff", "uni_r", "uni_s", "clone"])
    def test_matches_oracle(self, inputs, partition, method):
        r, s, truth = inputs
        cfg = GeneralizedJoinConfig(eps=EPS, partition=partition, method=method)
        res = generalized_distance_join(r, s, cfg)
        assert res.pairs_set() == truth
        assert len(res) == len(truth)  # duplicate-free

    def test_quadtree_capacity_sweep(self, inputs, monkeypatch):
        r, s, truth = inputs
        cfg = GeneralizedJoinConfig(eps=EPS, partition="quadtree")
        for capacity in (50, 200, 1000):
            monkeypatch.setattr(generalized_join, "QUADTREE_CAPACITY", capacity)
            res = generalized_distance_join(r, s, cfg)
            assert res.pairs_set() == truth, capacity

    def test_uniform_data(self):
        r = uniform(800, seed=21)
        s = uniform(800, seed=22)
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.03)
        for partition in ("grid", "quadtree"):
            cfg = GeneralizedJoinConfig(eps=0.03, partition=partition)
            res = generalized_distance_join(r, s, cfg)
            assert res.pairs_set() == truth


class TestAdaptiveGains:
    def test_adaptive_beats_universal_on_quadtree(self, inputs):
        r, s, _ = inputs
        out = {}
        for method in ("lpib", "uni_r", "uni_s", "clone"):
            cfg = GeneralizedJoinConfig(eps=EPS, partition="quadtree", method=method)
            out[method] = generalized_distance_join(r, s, cfg).metrics
        assert out["lpib"].replicated_total < min(
            out["uni_r"].replicated_total, out["uni_s"].replicated_total
        )
        # the clone join replicates roughly both universals combined
        assert out["clone"].replicated_total >= max(
            out["uni_r"].replicated_total, out["uni_s"].replicated_total
        )

    def test_metrics_consistent(self, inputs):
        r, s, _ = inputs
        cfg = GeneralizedJoinConfig(eps=EPS, partition="quadtree")
        m = generalized_distance_join(r, s, cfg).metrics
        assert m.method == "quadtree-lpib"
        assert m.shuffle_records == len(r) + len(s) + m.replicated_total
        assert m.grid_cells == m.num_partitions
        assert m.exec_time_model > 0


class TestConfig:
    def test_bad_partition(self, inputs):
        r, s, _ = inputs
        with pytest.raises(ValueError):
            generalized_distance_join(
                r, s, GeneralizedJoinConfig(eps=EPS, partition="voronoi")
            )

    def test_bad_method(self, inputs):
        r, s, _ = inputs
        with pytest.raises(ValueError):
            generalized_distance_join(
                r, s, GeneralizedJoinConfig(eps=EPS, method="bogus")
            )

    def test_bad_eps(self, inputs):
        r, s, _ = inputs
        with pytest.raises(ValueError):
            generalized_distance_join(r, s, GeneralizedJoinConfig(eps=0.0))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 5000),
    n=st.integers(100, 600),
    eps=st.floats(0.01, 0.05),
    capacity=st.integers(20, 400),
    method=st.sampled_from(["lpib", "diff", "uni_r", "uni_s"]),
)
def test_property_quadtree_join_correct_and_duplicate_free(
    seed, n, eps, capacity, method
):
    rng = np.random.default_rng(seed)
    from repro.data.pointset import PointSet

    # half clustered, half uniform, to vary the leaf structure
    r = PointSet(
        np.concatenate([rng.uniform(0, 1, n // 2), rng.normal(0.3, 0.05, n - n // 2)]).clip(0, 1),
        np.concatenate([rng.uniform(0, 1, n // 2), rng.normal(0.7, 0.05, n - n // 2)]).clip(0, 1),
        name="r",
    )
    s = PointSet(
        rng.uniform(0, 1, n),
        rng.uniform(0, 1, n),
        name="s",
    )
    truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), eps)
    cfg = GeneralizedJoinConfig(eps=eps, partition="quadtree", method=method)
    with mock.patch.multiple(
        generalized_join, QUADTREE_CAPACITY=capacity, SAMPLE_RATE=0.5, SAMPLE_SEED=seed,
    ):
        res = generalized_distance_join(r, s, cfg)
    assert res.pairs_set() == truth
    assert len(res) == len(truth)
