"""Robustness and failure-injection tests: degenerate inputs, forced
algorithm failures, and fallback paths."""

import numpy as np
import pytest

from repro.agreements.marking import MarkingError, mark_quartet
from repro.data.pointset import PointSet
from repro.geometry.mbr import MBR
from repro.geometry.objects import BoxObject
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.generalized_join import GeneralizedJoinConfig, generalized_distance_join
from repro.joins.object_join import ObjectJoinConfig, ObjectSet, object_distance_join
from repro.joins.pipeline import ExecutionSettings
from repro.planner import plan_join
from repro.serving.server import ServerConfig
from repro.verify.oracle import kdtree_pairs
from tests.conftest import make_graph

NAN = float("nan")


def points(coords, name="p"):
    xs = np.array([c[0] for c in coords], dtype=float)
    ys = np.array([c[1] for c in coords], dtype=float)
    return PointSet(xs, ys, name=name)


class TestDegenerateInputs:
    def test_all_points_identical(self):
        r = points([(0.5, 0.5)] * 50, "r")
        s = points([(0.5, 0.5)] * 50, "s")
        res = distance_join(r, s, JoinConfig(eps=0.01, method="lpib"))
        assert len(res) == 2500

    def test_eps_larger_than_domain(self):
        r = points([(0.1, 0.1), (0.9, 0.9)], "r")
        s = points([(0.5, 0.5)], "s")
        res = distance_join(r, s, JoinConfig(eps=5.0, method="lpib"))
        assert res.pairs_set() == {(0, 0), (1, 0)}

    def test_collinear_points(self):
        r = points([(x / 50, 0.5) for x in range(50)], "r")
        s = points([(x / 50 + 0.001, 0.5) for x in range(50)], "s")
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.03)
        for method in ("lpib", "uni_r", "eps_grid"):
            res = distance_join(r, s, JoinConfig(eps=0.03, method=method))
            assert res.pairs_set() == truth, method

    def test_lattice_points_on_cell_borders(self):
        """Points exactly on every grid line: boundary assignment must stay
        consistent between replication and native assignment."""
        grid = Grid(MBR(0, 0, 1, 1), 0.05)
        xs = [grid.mbr.xmin + i * grid.cell_w for i in range(grid.nx + 1)]
        ys = [grid.mbr.ymin + j * grid.cell_h for j in range(grid.ny + 1)]
        coords = [(min(x, 1.0), min(y, 1.0)) for x in xs[:8] for y in ys[:8]]
        # the box's opposite corners make the join build ``grid`` itself
        r = points(coords + [(0.0, 0.0), (1.0, 1.0)], "r")
        s = points([(x + 1e-4, y) for x, y in coords], "s")
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.05)
        cfg = JoinConfig(eps=0.05, method="diff")
        res = distance_join(r, s, cfg)
        assert res.pairs_set() == truth
        assert len(res) == len(truth)

    def test_single_point_each(self):
        r = points([(0.2, 0.2)], "r")
        s = points([(0.201, 0.2)], "s")
        res = distance_join(r, s, JoinConfig(eps=0.01))
        assert res.pairs_set() == {(0, 0)}

    def test_extreme_aspect_ratio_domain(self):
        rng = np.random.default_rng(5)
        r = PointSet(rng.uniform(0, 100, 300), rng.uniform(0, 0.3, 300), name="r")
        s = PointSet(rng.uniform(0, 100, 300), rng.uniform(0, 0.3, 300), name="s")
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.5)
        res = distance_join(r, s, JoinConfig(eps=0.5, method="lpib"))
        assert res.pairs_set() == truth


class TestValidation:
    def test_nan_coordinates_rejected(self):
        with pytest.raises(ValueError):
            PointSet([0.0, float("nan")], [0.0, 0.0])

    @pytest.mark.parametrize("driver", ["distance", "object", "generalized"])
    def test_nan_eps_rejected(self, driver):
        """A NaN eps fails every comparison, so each driver's entry check
        asks ``not eps > 0`` (``>= 0`` for objects) and raises its typed
        error rather than returning no pairs or failing deep inside."""
        nan = float("nan")
        r = PointSet([0.1, 0.5], [0.1, 0.5], name="r")
        s = PointSet([0.2, 0.6], [0.2, 0.6], name="s")
        with pytest.raises(ValueError, match="eps must be"):
            if driver == "distance":
                distance_join(r, s, JoinConfig(eps=nan))
            elif driver == "object":
                object_distance_join(
                    ObjectSet([BoxObject(0, MBR(0.1, 0.1, 0.2, 0.2), Side.R)]),
                    ObjectSet([BoxObject(0, MBR(0.3, 0.3, 0.4, 0.4), Side.S)]),
                    nan,
                )
            else:
                generalized_distance_join(r, s, GeneralizedJoinConfig(eps=nan))

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda r, s: plan_join(r, s, NAN), "eps must be positive", id="nan-eps"
            ),
            pytest.param(
                lambda r, s: plan_join(r, s, -1.0), "eps must be positive", id="negative-eps"
            ),
            pytest.param(
                lambda r, s: plan_join(r, s, 0.1, pins={"resolution_factor": NAN}),
                "resolution_factor must be finite and >= 1",
                id="nan-factor-pin",
            ),
            pytest.param(
                lambda r, s: distance_join(r, s, JoinConfig(eps=0.1, resolution_factor=NAN)),
                "resolution factor must be >= 1",
                id="nan-factor-config",
            ),
            pytest.param(
                lambda r, s: plan_join(r, s, 0.1, pins={"workers": 2.5}),
                "workers must be a whole number",
                id="fractional-workers-pin",
            ),
        ],
    )
    def test_planner_edge_rejects_with_typed_errors(self, call, message):
        """The planner checks its eps at entry as the drivers do, the grid's
        checks are written so that NaN fails them, and a pin is never
        silently truncated: each raises its own message, not a NaN
        conversion deep inside or a plan for 2 workers asked as 2.5."""
        rng = np.random.default_rng(7)
        r = PointSet(rng.random(400), rng.random(400), name="r")
        s = PointSet(rng.random(300), rng.random(300), name="s")
        with pytest.raises(ValueError, match=message):
            call(r, s)

    @pytest.mark.parametrize("config, field, value", [
        # JoinConfig's rows keep their plain ``field-value`` ids
        *(pytest.param(JoinConfig, f, v, id=f"{f}-{v}") for f, v in [
            ("local_kernel", "bogus"),
            ("cell_assignment", "bogus"),
            ("method", "bogus"),
            ("num_workers", 0),
            ("num_workers", 2.5),
            ("num_partitions", 0),
            ("executor_workers", 0),
            ("sample_rate", 0.0),
            ("sample_rate", 1.5),
            ("resolution_factor", 0.5),
            ("resolution_factor", NAN),
            ("max_retries", -1),
            ("task_timeout", 0.0),
            ("execution_backend", "gpu"),
            ("spill", "tape"),
            ("spill_dir", "/nonexistent"),  # without a spill tier
            ("checkpoint_cells", True),  # without a spill tier
            ("marking_ordering", "bogus"),
            ("faults", "explode:p=1"),
        ]),
        *(pytest.param(ObjectJoinConfig, f, v, id=f"object-{f}-{v}") for f, v in [
            ("method", "bogus"),
            ("num_workers", 0),
            ("num_workers", 2.5),
        ]),
        *(pytest.param(GeneralizedJoinConfig, f, v, id=f"generalized-{f}-{v}") for f, v in [
            ("eps", NAN),
            ("eps", 0.0),
            ("method", "bogus"),
            ("partition", "voronoi"),
            ("num_workers", 0),
            ("num_workers", 2.5),
        ]),
        # the command line's rules, now the configs' own: finite values,
        # whole counts, its ranges
        *(pytest.param(ExecutionSettings, f, v, id=f"execution-{f}-{v}") for f, v in [
            ("task_timeout", NAN),
            ("max_retries", 1.5),
            ("executor_workers", 2.5),
        ]),
        *(pytest.param(ServerConfig, f, v, id=f"server-{f}-{v}") for f, v in [
            ("slo_p95_seconds", NAN),
            ("max_inflight", NAN),
            ("max_queue", NAN),
            ("default_workers", 2.5),
            ("result_cache_bytes", 0),
        ]),
    ])
    def test_every_bad_config_field_fails_at_construction(self, config, field, value):
        """Each config is where its fields are checked: a bad value is a
        ``ValueError`` naming its field from the constructor itself,
        before any stage runs or any query is served -- not a ``KeyError``
        from a stage, nor a default silently put in its place."""
        required = {"eps": 0.1} if config in (JoinConfig, GeneralizedJoinConfig) else {}
        with pytest.raises(ValueError, match=field):
            config(**{**required, field: value})

    def test_infinite_eps_still_plans_and_joins(self):
        """An infinite eps is a cross product, not an error."""
        r = PointSet([0.1, 0.5, 0.9], [0.1, 0.5, 0.9], name="r")
        s = PointSet([0.2, 0.6], [0.2, 0.6], name="s")
        with np.errstate(invalid="ignore"):
            planned = plan_join(r, s, float("inf"), pins={"workers": 4.0})
        assert planned.chosen.workers == 4
        assert len(distance_join(r, s, JoinConfig(eps=float("inf"))).r_ids) == 6

    def test_inf_coordinates_rejected(self):
        with pytest.raises(ValueError):
            PointSet([0.0, float("inf")], [0.0, 0.0])

    def test_empty_point_set_allowed(self):
        assert len(PointSet(np.empty(0), np.empty(0))) == 0


class TestFailureInjection:
    def test_marking_error_when_triangle_unresolvable(self, grid2x2):
        """Force both base directed edges of a mixed triangle to be marked:
        neither apex edge can then be marked and the repair must raise."""
        graph = make_graph(
            grid2x2,
            [  # pair order: (0,1) (0,2) (0,3) (1,3) (1,2) (2,3)
                Side.S,  # 0-1 base pair of the mixed triangle (0, 1, 2)
                Side.R,  # 0-2
                Side.R,  # 0-3
                Side.R,  # 1-3
                Side.R,  # 1-2
                Side.R,  # 2-3
            ],
        )
        sub = graph.quartets[(1, 1)]
        # triangle (0, 1, 2): apex 2 (edges 2->0 and 2->1 of type R, base
        # 0-1 of type S).  Sabotage: pre-mark both base directions.
        sub.edge(0, 1).marked = True
        sub.edge(1, 0).marked = True
        with pytest.raises(MarkingError):
            mark_quartet(sub)

    def test_repair_pass_resolves_when_locked_but_unmarked(self, grid2x2):
        """Locks alone must never make a triangle unresolvable: the repair
        pass ignores locks (but never marks over marked supports)."""
        graph = make_graph(
            grid2x2,
            [Side.S, Side.R, Side.R, Side.R, Side.R, Side.R],
        )
        sub = graph.quartets[(1, 1)]
        for e in sub.edges():
            e.locked = True  # sabotage: everything locked, nothing marked
        report = mark_quartet(sub)
        assert report.repaired_triangles >= 1
        from repro.agreements.marking import unresolved_mixed_triangles

        assert unresolved_mixed_triangles(sub) == []


class TestMemoryModel:
    def test_peak_heap_reported(self, small_clusters):
        r, s = small_clusters
        m = distance_join(r, s, JoinConfig(eps=0.02, method="lpib")).metrics
        assert m.extra["peak_worker_heap_bytes"] > 0

    def test_eps_grid_needs_more_heap_than_adaptive(self, small_clusters):
        r, s = small_clusters
        adaptive = distance_join(r, s, JoinConfig(eps=0.02, method="lpib")).metrics
        eps_grid = distance_join(r, s, JoinConfig(eps=0.02, method="eps_grid")).metrics
        assert (
            eps_grid.extra["peak_worker_heap_bytes"]
            > adaptive.extra["peak_worker_heap_bytes"]
        )


class TestFaultRecovery:
    def test_zero_retry_budget_degrades_to_serial(self, small_clusters):
        """With no retries the fault plan kills the processes and threads
        attempts; the driver must walk the fallback chain down to serial
        and still produce the oracle answer."""
        r, s = small_clusters
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.02)
        cfg = JoinConfig(
            eps=0.02, method="lpib", num_workers=3, executor_workers=2,
            execution_backend="processes", faults="kill:p=1:times=2",
            max_retries=0,
        )
        res = distance_join(r, s, cfg)
        assert res.pairs_set() == truth
        assert len(res) == len(truth)
        assert res.metrics.fallback_backend == "serial"
        assert res.metrics.extra["degraded_steps"] == 2  # threads, then serial

    def test_faulted_metrics_stay_consistent(self, small_clusters):
        """Recovery must not corrupt the accounting the validator checks
        (shuffle totals, result counts, remote-byte bounds)."""
        from repro.verify.invariants import validate_join_result

        r, s = small_clusters
        cfg = JoinConfig(
            eps=0.02, method="uni_r", num_workers=3, executor_workers=2,
            execution_backend="threads",
            faults="kill:p=1:times=1,fetch:p=0.5", max_retries=3,
        )
        res = distance_join(r, s, cfg)
        check = validate_join_result(res, r, s, 0.02)
        assert check.ok, check.issues


class TestFallbacks:
    def test_lpt_with_unsampled_cells_still_correct(self, small_clusters):
        """A 0.1% sample leaves most cells unseen; the partitioner must
        fall back to hashing for them without losing results."""
        r, s = small_clusters
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.02)
        cfg = JoinConfig(eps=0.02, method="uni_r", sample_rate=0.001,
                         cell_assignment="lpt")
        res = distance_join(r, s, cfg)
        assert res.pairs_set() == truth

    def test_adaptive_with_tiny_sample_still_correct(self, small_clusters):
        """Agreements chosen from almost no data are arbitrary but must
        never break correctness or duplicate-freeness."""
        r, s = small_clusters
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.02)
        for seed in (0, 1, 2):
            cfg = JoinConfig(eps=0.02, method="lpib", sample_rate=0.001, seed=seed)
            res = distance_join(r, s, cfg)
            assert res.pairs_set() == truth
            assert len(res) == len(truth)

    def test_single_worker(self, small_clusters):
        r, s = small_clusters
        cfg = JoinConfig(eps=0.02, method="diff", num_workers=1, num_partitions=1)
        res = distance_join(r, s, cfg)
        truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), 0.02)
        assert res.pairs_set() == truth
        assert res.metrics.remote_bytes == 0  # nothing leaves the one worker
