"""Integration tests for the parallel distance-join driver."""

import numpy as np
import pytest

from repro.data.generators import gaussian_clusters, uniform
from repro.joins.distance_join import (
    GRID_METHODS,
    JoinConfig,
    distance_join,
    paper_default_config,
)
from repro.joins.api import ALL_METHODS, spatial_join
from repro.verify.oracle import kdtree_pairs

EPS = 0.02


@pytest.fixture(scope="module")
def inputs():
    r = gaussian_clusters(1200, seed=31, name="R")
    s = gaussian_clusters(1200, seed=32, name="S")
    truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), EPS)
    return r, s, truth


class TestCorrectness:
    @pytest.mark.parametrize("method", GRID_METHODS)
    def test_method_matches_oracle(self, inputs, method):
        r, s, truth = inputs
        res = distance_join(r, s, JoinConfig(eps=EPS, method=method, seed=3))
        assert res.pairs_set() == truth
        assert len(res) == len(truth)  # duplicate-free

    @pytest.mark.parametrize("method", ["lpib", "diff"])
    def test_dedup_variant_matches_oracle(self, inputs, method):
        r, s, truth = inputs
        res = distance_join(
            r, s, JoinConfig(eps=EPS, method=method, duplicate_free=False)
        )
        assert res.pairs_set() == truth
        assert len(res) == len(truth)  # distinct() removed duplicates

    def test_hash_and_lpt_same_result(self, inputs):
        r, s, truth = inputs
        for assignment in ("lpt", "hash"):
            res = distance_join(
                r, s, JoinConfig(eps=EPS, method="lpib", cell_assignment=assignment)
            )
            assert res.pairs_set() == truth

    @pytest.mark.parametrize("kernel", ["plane_sweep", "nested_loop", "grid_hash"])
    def test_kernels_interchangeable(self, inputs, kernel):
        r, s, truth = inputs
        res = distance_join(
            r, s, JoinConfig(eps=EPS, method="lpib", local_kernel=kernel)
        )
        assert res.pairs_set() == truth

    def test_worker_count_does_not_change_result(self, inputs):
        r, s, truth = inputs
        for workers in (1, 4, 12):
            res = distance_join(
                r, s, JoinConfig(eps=EPS, method="diff", num_workers=workers)
            )
            assert res.pairs_set() == truth

    def test_coarser_resolution_same_result(self, inputs):
        r, s, truth = inputs
        for factor in (2.0, 3.0, 5.0):
            res = distance_join(
                r, s, JoinConfig(eps=EPS, method="lpib", resolution_factor=factor)
            )
            assert res.pairs_set() == truth


class TestMetrics:
    def test_shuffle_records_account_for_replication(self, inputs):
        r, s, _ = inputs
        res = distance_join(r, s, JoinConfig(eps=EPS, method="uni_r"))
        m = res.metrics
        assert m.shuffle_records == len(r) + len(s) + m.replicated_total
        assert m.replicated_s == 0  # only R is replicated under UNI(R)

    def test_adaptive_replicates_less_than_universal(self, inputs):
        r, s, _ = inputs
        adaptive = distance_join(r, s, JoinConfig(eps=EPS, method="lpib")).metrics
        uni_r = distance_join(r, s, JoinConfig(eps=EPS, method="uni_r")).metrics
        uni_s = distance_join(r, s, JoinConfig(eps=EPS, method="uni_s")).metrics
        assert adaptive.replicated_total <= min(
            uni_r.replicated_total, uni_s.replicated_total
        )

    def test_eps_grid_has_highest_replication(self, inputs):
        r, s, _ = inputs
        eps_grid = distance_join(r, s, JoinConfig(eps=EPS, method="eps_grid")).metrics
        uni_r = distance_join(r, s, JoinConfig(eps=EPS, method="uni_r")).metrics
        assert eps_grid.replicated_total > uni_r.replicated_total

    def test_remote_bytes_bounded_by_total(self, inputs):
        r, s, _ = inputs
        m = distance_join(r, s, JoinConfig(eps=EPS, method="lpib")).metrics
        assert 0 < m.remote_bytes <= m.shuffle_bytes

    def test_payload_grows_shuffle_volume(self, inputs):
        r, s, _ = inputs
        small = distance_join(r, s, JoinConfig(eps=EPS, method="uni_r")).metrics
        big = distance_join(
            r.with_payload(128), s.with_payload(128), JoinConfig(eps=EPS, method="uni_r")
        ).metrics
        assert big.shuffle_bytes > small.shuffle_bytes
        assert big.results == small.results

    def test_time_model_positive_and_split(self, inputs):
        r, s, _ = inputs
        m = distance_join(r, s, JoinConfig(eps=EPS, method="lpib")).metrics
        assert m.construction_time_model > 0
        assert m.join_time_model > 0
        assert m.exec_time_model == pytest.approx(
            m.construction_time_model + m.join_time_model
        )

    def test_worker_join_costs_length(self, inputs):
        r, s, _ = inputs
        m = distance_join(r, s, JoinConfig(eps=EPS, method="lpib", num_workers=7)).metrics
        assert len(m.worker_join_costs) == 7

    def test_dedup_variant_reports_extra_cost(self, inputs):
        r, s, _ = inputs
        m = distance_join(
            r, s, JoinConfig(eps=EPS, method="lpib", duplicate_free=False)
        ).metrics
        assert "dedup_time_model" in m.extra

    def test_marking_stats_exposed_for_adaptive(self, inputs):
        r, s, _ = inputs
        m = distance_join(r, s, JoinConfig(eps=EPS, method="diff")).metrics
        assert "agreements_r" in m.extra
        assert "agreements_s" in m.extra
        assert "marked_edges" in m.extra


class TestConfig:
    def test_default_partitions_paper_value(self):
        assert paper_default_config().resolved_partitions() == 96

    def test_invalid_method(self, inputs):
        r, s, _ = inputs
        with pytest.raises(ValueError):
            distance_join(r, s, JoinConfig(eps=EPS, method="bogus"))

    def test_invalid_eps(self, inputs):
        r, s, _ = inputs
        with pytest.raises(ValueError):
            distance_join(r, s, JoinConfig(eps=0.0))

    def test_invalid_assignment(self, inputs):
        r, s, _ = inputs
        with pytest.raises(ValueError):
            distance_join(r, s, JoinConfig(eps=EPS, cell_assignment="bogus"))

    def test_no_config_selects_a_second_execution_path(self):
        from repro.joins.generalized_join import GeneralizedJoinConfig
        from repro.joins.object_join import ObjectJoinConfig

        for make in (
            lambda **kw: JoinConfig(eps=EPS, **kw),
            lambda **kw: GeneralizedJoinConfig(eps=EPS, **kw),
            ObjectJoinConfig,
        ):
            with pytest.raises(TypeError, match="fused"):
                make(fused=False)


class TestDegenerate:
    def test_uniform_data(self):
        r = uniform(400, seed=5, name="u1")
        s = uniform(400, seed=6, name="u2")
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.05)
        for method in GRID_METHODS:
            res = distance_join(r, s, JoinConfig(eps=0.05, method=method))
            assert res.pairs_set() == truth

    def test_tiny_inputs(self):
        from repro.data.pointset import PointSet

        r = PointSet(np.array([0.5]), np.array([0.5]), name="one")
        s = PointSet(np.array([0.5, 0.9]), np.array([0.5, 0.9]), name="two")
        res = distance_join(r, s, JoinConfig(eps=0.1, method="lpib"))
        assert res.pairs_set() == {(0, 0)}

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_an_empty_side_yields_no_pairs(self, method):
        from repro.data.pointset import PointSet

        empty, s = PointSet([], [], name="none"), uniform(200, seed=3)
        for a, b in ((empty, s), (s, empty), (empty, empty)):
            res = spatial_join(a, b, eps=0.1, method=method)
            assert len(res) == 0 and res.metrics.results == 0, (a.name, b.name)

    def test_no_matches(self):
        from repro.data.pointset import PointSet

        r = PointSet(np.array([0.1]), np.array([0.1]), name="far")
        s = PointSet(np.array([0.9]), np.array([0.9]), name="away")
        res = distance_join(r, s, JoinConfig(eps=0.05, method="uni_r"))
        assert len(res) == 0
        assert res.metrics.results == 0
