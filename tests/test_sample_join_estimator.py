"""The cost model's sample-join count: array kernel == KD-tree oracle.

``_build_models`` joins the two Bernoulli samples to estimate the result
cardinality.  It counts with the production ``grid_hash`` kernel (so the
planner never loads scipy or builds Python triples); the count must be
the oracle's on every input the planner, cost-model and tuning tests
plan for, and on the inputs nobody generates on purpose.
"""

import numpy as np
import pytest

from repro.core.cost_model import _build_models
from repro.data.generators import gaussian_clusters, uniform
from repro.data.pointset import PointSet
from repro.data.sampling import bernoulli_sample
from repro.verify.oracle import kdtree_pairs

#: (R, S, eps, sample_rate, seed) as tests/test_planner.py,
#: tests/test_cost_model.py and tests/test_tuning.py call the planner
WORKLOADS = {
    "planner_small": (lambda: gaussian_clusters(1500, seed=1),
                      lambda: uniform(1200, seed=2), 0.01, 0.03, 0),
    "planner_pick": (lambda: gaussian_clusters(2500, seed=3),
                     lambda: uniform(2000, seed=4), 0.012, 0.2, 1),
    "planner_fig10_a": (lambda: gaussian_clusters(2000, seed=5),
                        lambda: gaussian_clusters(1800, seed=6), 0.009, 0.15, 2),
    "planner_fig10_b": (lambda: uniform(2000, seed=7),
                        lambda: gaussian_clusters(1800, seed=5), 0.015, 0.15, 2),
    "planner_fig15": (lambda: gaussian_clusters(2000, seed=5),
                      lambda: gaussian_clusters(1800, seed=6), 0.012, 0.15, 2),
    "cost_model": (lambda: gaussian_clusters(12_000, seed=101),
                   lambda: gaussian_clusters(12_000, seed=202), 0.012, 0.03, 0),
    "tuning": (lambda: gaussian_clusters(6000, seed=101),
               lambda: gaussian_clusters(6000, seed=202), 0.015, 0.03, 0),
}


def oracle_count(r, s, eps, rate, seed):
    r_sample = bernoulli_sample(r, rate, seed)
    s_sample = bernoulli_sample(s, rate, seed + 1)
    return len(kdtree_pairs(
        list(r_sample.iter_triples()), list(s_sample.iter_triples()), eps
    ))


def kernel_count(r, s, eps, rate, seed):
    return _build_models(r, s, eps, rate, 12, seed)(2.0).sample_results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sample_join_count_matches_the_oracle(name):
    make_r, make_s, eps, rate, seed = WORKLOADS[name]
    r, s = make_r(), make_s()
    expected = oracle_count(r, s, eps, rate, seed)
    assert expected > 0 or name == "planner_small"  # a 3% sample of ~40 points
    assert kernel_count(r, s, eps, rate, seed) == expected


def test_duplicates_and_pairs_at_exactly_eps():
    """dx^2 + dy^2 == eps^2 in exact arithmetic: both predicates are
    ``<=``, so the border pairs count, once per (r, s) id pair."""
    eps = 0.625  # a 3-4-5 triangle scaled by 1/8: every number is exact
    r = PointSet([0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 2.0])
    s = PointSet([0.375, 0.625, 0.0, 0.0, 0.625000001, 2.0],
                 [0.5, 0.0, 0.625, 0.0, 0.0, 2.0])
    # each of the three R duplicates at the origin pairs with S 0..3
    # (three of them at distance exactly eps), R 3 with its twin S 5
    assert oracle_count(r, s, eps, 1.0, 0) == 13
    assert kernel_count(r, s, eps, 1.0, 0) == 13


def test_empty_sample_side():
    r = uniform(40, seed=1)
    s = uniform(40, seed=2)
    for seed in range(6):  # at this rate about half the samples are empty
        counts = (len(bernoulli_sample(r, 0.02, seed)),
                  len(bernoulli_sample(s, 0.02, seed + 1)))
        assert kernel_count(r, s, 0.3, 0.02, seed) == oracle_count(
            r, s, 0.3, 0.02, seed
        ), counts
    assert kernel_count(r, s, 0.3, 1e-9, 0) == 0  # both samples empty
