"""Tests for the analytical cost model (Sect. 8 future work)."""

import pytest

from repro.core.cost_model import (
    AnalyticalCostModel,
    predict_join,
)
from repro.data.generators import gaussian_clusters, uniform
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics
from repro.joins.distance_join import JoinConfig, distance_join
from repro.planner import plan_join

EPS = 0.012


@pytest.fixture(scope="module")
def skewed():
    r = gaussian_clusters(12_000, seed=101, name="S1")
    s = gaussian_clusters(12_000, seed=202, name="S2")
    return r, s


@pytest.fixture(scope="module")
def measured(skewed):
    r, s = skewed
    out = {}
    for method in ("lpib", "uni_r", "uni_s", "eps_grid"):
        cfg = JoinConfig(eps=EPS, method=method, collect_pairs=False)
        out[method] = distance_join(r, s, cfg).metrics
    return out


class TestPredictions:
    @pytest.mark.parametrize("method", ["uni_r", "uni_s", "eps_grid"])
    def test_universal_replication_within_20_percent(self, skewed, measured, method):
        r, s = skewed
        pred = predict_join(r, s, EPS, method)
        actual = measured[method].replicated_total
        assert 0.8 * actual < pred.replicated_total < 1.2 * actual

    def test_adaptive_replication_same_order(self, skewed, measured):
        r, s = skewed
        pred = predict_join(r, s, EPS, "lpib")
        actual = measured["lpib"].replicated_total
        assert 0.3 * actual < pred.replicated_total < 3.0 * actual

    def test_result_estimate_same_order(self, skewed, measured):
        r, s = skewed
        pred = predict_join(r, s, EPS, "lpib")
        actual = measured["lpib"].results
        assert 0.25 * actual < pred.results < 4.0 * actual

    def test_time_prediction_tracks_measurement(self, skewed, measured):
        r, s = skewed
        for method in ("lpib", "uni_r"):
            pred = predict_join(r, s, EPS, method)
            actual = measured[method].exec_time_model
            assert 0.5 * actual < pred.exec_time < 2.0 * actual, method

    def test_shuffle_bytes_consistent_with_replication(self, skewed):
        r, s = skewed
        pred = predict_join(r, s, EPS, "uni_r")
        expected = (len(r) + pred.replicated_r + len(s)) * 32  # 8 key + 24 tuple
        assert pred.shuffle_bytes == pytest.approx(expected)

    def test_prediction_orders_methods_like_measurement(self, skewed, measured):
        """The model must rank adaptive ahead of the PBSM baselines."""
        r, s = skewed
        preds = {m: predict_join(r, s, EPS, m) for m in measured}
        assert preds["lpib"].exec_time == min(p.exec_time for p in preds.values())
        assert preds["lpib"].replicated_total < 0.5 * min(
            preds["uni_r"].replicated_total, preds["uni_s"].replicated_total
        )


#: ``plan_join`` searching the method alone on the paper's clock (what
#: ``repro predict`` asks for): every other dimension pinned.
METHOD_ONLY = dict(
    pins={"resolution_factor": 2.0, "kernel": "plane_sweep", "workers": 12},
    clock="modelled",
)


class TestRecommendation:
    def test_recommends_adaptive_on_skewed_data(self, skewed):
        r, s = skewed
        planned = plan_join(r, s, EPS, **METHOD_ONLY)
        assert planned.chosen.method in ("lpib", "diff")
        assert {c.method for c in planned.candidates} == {
            "lpib", "diff", "uni_r", "uni_s", "eps_grid"
        }
        # the searcher reads the same model the one-method entry point does
        for c in planned.candidates:
            assert c.prediction.exec_time == predict_join(r, s, EPS, c.method).exec_time

    def test_restricting_candidates(self, skewed):
        r, s = skewed
        planned = plan_join(r, s, EPS, methods=("uni_r", "uni_s"), **METHOD_ONLY)
        assert planned.chosen.method in ("uni_r", "uni_s")
        assert {c.method for c in planned.candidates} == {"uni_r", "uni_s"}

    def test_describe(self, skewed):
        r, s = skewed
        pred = predict_join(r, s, EPS, "lpib")
        assert "lpib" in pred.describe()
        assert pred.exec_time == pred.construction_time + pred.join_time


class TestModelMechanics:
    def test_invalid_sample_rate(self):
        grid = Grid(uniform(10, seed=1).mbr(), 0.05)
        stats = GridStatistics(grid)
        with pytest.raises(ValueError):
            AnalyticalCostModel(grid, stats, 0.0, n_r=10, n_s=10)

    def test_full_statistics_exact_universal_replication(self):
        """With phi = 1 the universal replication prediction is exact."""
        r = uniform(2000, seed=3, name="u1")
        s = uniform(2000, seed=4, name="u2")
        grid = Grid(r.mbr().union(s.mbr()), 0.05)
        stats = GridStatistics(grid)
        stats.add_points(r.xs, r.ys, Side.R)
        stats.add_points(s.xs, s.ys, Side.S)
        model = AnalyticalCostModel(grid, stats, 1.0, n_r=len(r), n_s=len(s))
        pred = model.predict("uni_r")
        cfg = JoinConfig(
            eps=0.05, method="uni_r", sample_rate=1.0, collect_pairs=False,
        )
        actual = distance_join(r, s, cfg).metrics
        assert pred.replicated_total == pytest.approx(actual.replicated_total)

    @pytest.mark.parametrize("factor", [2.0, 4.0])
    @pytest.mark.parametrize("method", ["lpib", "uni_r"])
    def test_grid_hash_candidates_follow_the_kernel(self, method, factor):
        """The priced ``grid_hash`` window is the one the kernel probes:
        predicted and counted candidate pairs agree within 15% on
        uniform data, at either cell size."""
        eps = 0.02
        r = uniform(8000, seed=5, name="u1")
        s = uniform(8000, seed=6, name="u2")
        grid = Grid(r.mbr().union(s.mbr()), eps, resolution_factor=factor)
        stats = GridStatistics(grid)
        stats.add_points(r.xs, r.ys, Side.R)
        stats.add_points(s.xs, s.ys, Side.S)
        model = AnalyticalCostModel(grid, stats, 1.0, n_r=len(r), n_s=len(s))
        predicted = model.predict(method, kernel="grid_hash").candidates
        cfg = JoinConfig(
            eps=eps, method=method, resolution_factor=factor,
            local_kernel="grid_hash", collect_pairs=False,
        )
        counted = distance_join(r, s, cfg).metrics.candidate_pairs
        assert 0.85 * counted < predicted < 1.15 * counted

    def test_sample_join_estimator_used_when_available(self):
        grid = Grid(uniform(10, seed=1).mbr(), 0.05)
        stats = GridStatistics(grid)
        model = AnalyticalCostModel(
            grid, stats, 0.5, n_r=100, n_s=100,
            sample_results=25, sample_results_rate=0.5,
        )
        assert model.predicted_results() == pytest.approx(25 / 0.25)
