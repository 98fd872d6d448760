"""Tuning method x grid resolution with the planner on the paper's clock.

What ``repro.core.tuning.tune_join`` used to be: ``plan_join`` with the
kernel and the worker count pinned and ``clock="modelled"``.
"""

import pytest

from repro.data.generators import gaussian_clusters
from repro.joins.distance_join import JoinConfig, distance_join
from repro.planner import DEFAULT_FACTORS, plan_join
from repro.verify.oracle import kdtree_pairs

EPS = 0.015
TUNE = dict(pins={"kernel": "plane_sweep", "workers": 12}, clock="modelled")


@pytest.fixture(scope="module")
def skewed():
    r = gaussian_clusters(6000, seed=101, name="S1")
    s = gaussian_clusters(6000, seed=202, name="S2")
    return r, s


def predictions(planned):
    return {
        (c.method, c.resolution_factor): c.prediction for c in planned.candidates
    }


class TestTuner:
    def test_explores_full_space(self, skewed):
        r, s = skewed
        explored = predictions(plan_join(r, s, EPS, **TUNE))
        adaptive_keys = [k for k in explored if k[0] == "lpib"]
        assert len(adaptive_keys) == len(DEFAULT_FACTORS)
        assert ("eps_grid", 1.0) in explored

    def test_picks_adaptive_method_on_skewed_data(self, skewed):
        r, s = skewed
        result = plan_join(r, s, EPS, **TUNE)
        explored = predictions(result)
        method, factor = min(explored, key=lambda k: explored[k].exec_time)
        assert method in ("lpib", "diff")
        assert factor in DEFAULT_FACTORS
        assert result.config.method == method
        assert result.config.resolution_factor == factor

    def test_tuned_config_runs_correctly(self, skewed):
        r, s = skewed
        result = plan_join(r, s, EPS, **TUNE)
        res = distance_join(r, s, result.config)
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), EPS)
        assert res.pairs_set() == truth

    def test_restricted_methods(self, skewed):
        r, s = skewed
        result = plan_join(r, s, EPS, methods=("uni_r", "uni_s"), **TUNE)
        assert result.chosen.method in ("uni_r", "uni_s")

    def test_table_lists_all_configs(self, skewed):
        r, s = skewed
        result = plan_join(
            r, s, EPS, methods=("lpib", "uni_r"), factors=(2.0, 3.0), **TUNE
        )
        table = result.candidate_table()
        assert table.count("lpib") == 2
        assert table.count("uni_r") == 2

    def test_tuner_beats_worst_configuration(self, skewed):
        """The tuned choice must be at least as fast (measured) as the
        predicted-worst configuration."""
        r, s = skewed
        result = plan_join(r, s, EPS, **TUNE)
        explored = predictions(result)
        worst_method, worst_factor = max(
            explored, key=lambda k: explored[k].exec_time
        )
        worst_cfg = JoinConfig(
            eps=EPS,
            method=worst_method,
            resolution_factor=worst_factor if worst_method != "eps_grid" else 2.0,
            collect_pairs=False,
        )
        tuned = distance_join(r, s, result.config).metrics.exec_time_model
        worst = distance_join(r, s, worst_cfg).metrics.exec_time_model
        assert tuned <= worst * 1.05
