"""The query-plan layer: logical specs, physical plans, the cost planner.

Five contract groups:

1. *Plan values* -- a ``PhysicalPlan`` is a frozen, hashable, printable,
   comparable value: its config plus the driver's stage list; a plan
   whose config is not the run's is rejected, ``explain`` prints the
   stages the run's spans name, and a forced-choice plan executes
   **bit-identically** to the plain driver config (against
   ``tests/golden/driver_goldens.json``).
2. *Planner search* -- enumeration over methods x factors x kernels x
   workers, pin collapsing, deterministic argmin, targeted errors; the
   two clocks (2b): the objective follows the backend, ``clock="modelled"``
   is the parent's planner bit for bit, the wall clock never rewards a
   simulated worker on ``serial``, and the memoised ``predict`` equals a
   fresh model's.
3. *Accuracy harness* -- predicted-vs-measured clock errors on the clock
   the plan was priced on, bounded on the serial backend's modelled
   clock, replayable from recorded RunReports.
4. *Auto vs static* -- on the fig10+fig15 mini-suite the planner's
   choice never loses to the worst static plan and stays within a small
   factor of the best (oracle) static plan on measured modelled clocks
   (``clock="modelled"``: a claim about the paper's clock).
5. *Surfaces* -- ``repro explain``, ``repro join --tuning auto``, the
   serving hook with its fingerprint+eps-bucket plan cache, and the
   pipeline's artifact cache/key pairing errors.
"""

import hashlib
import json
import os
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.core.wall_model import WALL_COEFFICIENTS, wall_seconds
from repro.data.generators import gaussian_clusters, uniform
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.plan import PlanInputs, distance_plan
from repro.planner import (
    CLOCKS,
    DEFAULT_FACTORS,
    DEFAULT_KERNELS,
    DEFAULT_METHODS,
    DEFAULT_WORKER_CANDIDATES,
    JoinSpec,
    PlanCache,
    backend_clock,
    clock_errors_from_metrics,
    eps_bucket,
    plan_join,
    replay_reports,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden", "driver_goldens.json")
with open(GOLDEN_PATH) as f:
    GOLDENS = json.load(f)

#: Candidates of an unpinned plan: ``eps_grid`` runs on its own 1x-eps grid.
FULL_SPACE = (
    ((len(DEFAULT_METHODS) - 1) * len(DEFAULT_FACTORS) + 1)
    * len(DEFAULT_KERNELS)
    * len(DEFAULT_WORKER_CANDIDATES)
)


def _load_fit_script():
    """``scripts/fit_wall_model.py`` as a module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "fit_wall_model", os.path.join(ROOT, "scripts", "fit_wall_model.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_digest(pairs) -> str:
    blob = ";".join(f"{a},{b}" for a, b in sorted(pairs)).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def inputs():
    return (
        gaussian_clusters(1500, seed=1, name="R"),
        uniform(1200, seed=2, name="S"),
    )


def _spec_fields(spec: JoinSpec) -> dict:
    """Every field of ``spec`` but the point sets, plus the content
    fingerprints they hash to."""
    values = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "points"}
    return {**values, "fingerprints": spec.fingerprints}


# ----------------------------------------------------------------------
# 1. plans as values: a config and its driver's stage list
# ----------------------------------------------------------------------
class TestPlanValues:
    def test_plan_is_frozen_hashable_comparable(self):
        cfg = JoinConfig(eps=0.01)
        a, b = distance_plan(cfg), distance_plan(cfg)
        assert a == b and hash(a) == hash(b)
        c = distance_plan(replace(cfg, method="diff"))
        assert a != c
        with pytest.raises(FrozenInstanceError):
            a.config = c.config

    def test_plan_renders_choices_and_stages(self):
        cfg = JoinConfig(eps=0.01, method="diff", local_kernel="grid_hash",
                         num_workers=7, resolution_factor=3.0)
        text = distance_plan(cfg).render()
        for token in ("diff", "grid_hash", "workers=7",
                      "resolution_factor=3.0", "build_partition",
                      "local_join (join)", "join_accounting (join)"):
            assert token in text, token

    def test_choices_surface_every_dimension(self):
        cfg = JoinConfig(eps=0.01, execution_backend="threads")
        choices = distance_plan(cfg).choices()
        for dim in ("method", "resolution_factor", "kernel", "backend",
                    "workers"):
            assert dim in choices, dim
        assert choices["backend"] == "threads"

    def test_plan_builds_real_stage_objects(self, inputs):
        r, s = inputs
        plan = distance_plan(JoinConfig(eps=0.01, duplicate_free=False))
        stages = plan.stages(PlanInputs(r=r, s=s))
        names = [type(st).__name__ for st in stages]
        assert "ShuffleStage" in names and "LocalJoinStage" in names
        assert "DistinctStage" in names  # duplicate_free=False appends it
        assert plan.stages(PlanInputs(r=r, s=s))[0] is not stages[0]

    def test_every_join_kind_lists_its_stages(self):
        from repro.joins.generalized_join import (
            GeneralizedJoinConfig,
            generalized_stages,
        )
        from repro.joins.object_join import object_stages
        names = {
            kind: [stage.name for stage in stages]
            for kind, stages in (
                ("object", object_stages(None, None, 0.01, 0.02, None)),
                ("generalized", generalized_stages(
                    GeneralizedJoinConfig(eps=0.01), None, None)),
            )
        }
        shared = ["assign", "shuffle", "shuffle_recovery", "local_join"]
        assert names["object"] == ["anchor_reduction", *shared,
                                   "exact_refine", "join_accounting"]
        assert names["generalized"] == ["rectangulation", *shared,
                                        "ownership", "join_accounting"]

    def test_an_empty_side_plans_and_yields_no_pairs(self):
        from repro.data.pointset import PointSet
        empty, s = PointSet([], [], name="none"), uniform(500, seed=3)
        for a, b in ((empty, s), (s, empty), (empty, empty)):
            planned = plan_join(a, b, 0.05, seed=1)
            res = distance_join(a, b, planned.config, plan=planned.plan)
            assert len(res) == 0 and res.metrics.results == 0

    def test_plan_of_another_config_rejected_by_driver(self):
        """A plan is its config: replaying a ``uni_r``/``grid_hash`` plan
        under an ``lpib`` config raises instead of running a hybrid (the
        ``lpib`` build with the ``grid_hash`` kernel)."""
        r = gaussian_clusters(3000, seed=1, name="R")
        s = gaussian_clusters(3000, seed=2, name="S")
        cfg = JoinConfig(eps=0.01, method="lpib", num_workers=4)
        other = replace(cfg, method="uni_r", local_kernel="grid_hash")
        with pytest.raises(ValueError, match="own config"):
            distance_join(r, s, cfg, plan=distance_plan(other))
        # a plan of an equal config replays; the tracer is not a choice
        from repro.engine.telemetry import Telemetry
        traced = replace(cfg, telemetry=Telemetry.create(enabled=True))
        res = distance_join(r, s, traced, plan=distance_plan(cfg))
        assert res.metrics.method == "lpib"

    def test_explain_stage_lines_are_the_run_stage_spans(self, inputs):
        """``explain`` names what runs: its stage lines are, in order, the
        names of the run's ``stage`` spans."""
        from repro.engine.telemetry import Telemetry
        r, s = inputs
        planned = plan_join(r, s, 0.01, seed=1)
        telemetry = Telemetry.create(enabled=True)
        distance_join(r, s, replace(planned.config, telemetry=telemetry))
        spans = [sp.name for sp in telemetry.tracer.spans()
                 if sp.cat == "stage"]
        text = planned.explain()
        lines = text.split("chosen physical plan:\n", 1)[1].splitlines()
        assert lines[0].startswith("physical plan [distance]")
        assert [line.split()[0] for line in lines[1:]] == spans


# ----------------------------------------------------------------------
# 1b. forced-choice plans == plain driver configs, bit for bit
# ----------------------------------------------------------------------
class TestForcedChoiceBitIdentity:
    @pytest.mark.parametrize(
        "row", GOLDENS["distance"],
        ids=[f"{r['method']}-{r['cell_assignment']}"
             for r in GOLDENS["distance"]],
    )
    def test_forced_plan_matches_driver_golden(self, row):
        """A plan with every choice pinned reproduces the golden bits."""
        r = gaussian_clusters(600, seed=1, name="R")
        s = gaussian_clusters(550, seed=2, name="S")
        cfg = JoinConfig(
            eps=0.02, method=row["method"], num_workers=4,
            cell_assignment=row["cell_assignment"], seed=0,
            local_kernel="plane_sweep",
        )
        res = distance_join(r, s, cfg, plan=distance_plan(cfg))
        assert pairs_digest(res.pairs_set()) == row["pairs_sha256"]
        assert repr(res.metrics.construction_time_model) == (
            row["construction_time_model"]
        )
        assert repr(res.metrics.join_time_model) == row["join_time_model"]

    def test_planner_config_executes_like_static_config(self, inputs):
        """plan_join's (config, plan) pair == a hand-built static run."""
        r, s = inputs
        planned = plan_join(
            r, s, 0.01,
            pins={"method": "diff", "resolution_factor": 3.0,
                  "kernel": "grid_hash", "workers": 6},
        )
        via_plan = distance_join(r, s, planned.config, plan=planned.plan)
        static = distance_join(r, s, JoinConfig(
            eps=0.01, method="diff", resolution_factor=3.0,
            local_kernel="grid_hash", num_workers=6,
        ))
        assert pairs_digest(via_plan.pairs_set()) == (
            pairs_digest(static.pairs_set())
        )
        assert repr(via_plan.metrics.exec_time_model) == (
            repr(static.metrics.exec_time_model)
        )


# ----------------------------------------------------------------------
# 2. the cost-based search
# ----------------------------------------------------------------------
class TestPlanJoin:
    def test_full_enumeration_size(self, inputs):
        r, s = inputs
        planned = plan_join(r, s, 0.01)
        assert len(planned.candidates) == FULL_SPACE
        keys = {c.key() for c in planned.candidates}
        assert len(keys) == FULL_SPACE  # no duplicate candidates

    def test_chosen_is_argmin_and_deterministic(self, inputs):
        r, s = inputs
        a = plan_join(r, s, 0.01)
        b = plan_join(r, s, 0.01)
        assert a.chosen.key() == b.chosen.key()
        assert a.predicted_clock == min(c.predicted_clock
                                        for c in a.candidates)

    def test_pins_collapse_their_dimension(self, inputs):
        r, s = inputs
        planned = plan_join(
            r, s, 0.01,
            pins={"method": "uni_r", "kernel": "plane_sweep", "workers": 5},
        )
        assert {c.method for c in planned.candidates} == {"uni_r"}
        assert {c.kernel for c in planned.candidates} == {"plane_sweep"}
        assert {c.workers for c in planned.candidates} == {5}
        assert len(planned.candidates) == len(DEFAULT_FACTORS)
        assert planned.config.method == "uni_r"
        assert planned.config.local_kernel == "plane_sweep"
        assert planned.config.num_workers == 5

    def test_eps_grid_prices_on_its_own_grid(self, inputs):
        r, s = inputs
        planned = plan_join(r, s, 0.01, pins={"method": "eps_grid"})
        assert {c.resolution_factor for c in planned.candidates} == {1.0}

    def test_unknown_pin_dimension_raises(self, inputs):
        r, s = inputs
        with pytest.raises(ValueError, match="unknown plan dimension"):
            plan_join(r, s, 0.01, pins={"kernal": "plane_sweep"})

    def test_resolution_factor_below_one_raises(self, inputs):
        """The grid needs cells at least eps wide; say so before sampling."""
        r, s = inputs
        with pytest.raises(ValueError, match="resolution_factor must be finite and >= 1"):
            plan_join(r, s, 0.01, pins={"resolution_factor": 0.5})

    def test_unknown_kernel_and_method_raise(self, inputs):
        r, s = inputs
        with pytest.raises(ValueError, match="cannot be planned"):
            plan_join(r, s, 0.01, pins={"kernel": "quantum"})
        # the tests' reference kernel runs, but is never planned
        with pytest.raises(
            ValueError, match=r"priceable: \('plane_sweep', 'grid_hash'\)"
        ):
            plan_join(r, s, 0.01, pins={"kernel": "nested_loop"})
        with pytest.raises(ValueError, match="method must be one of lpib"):
            plan_join(r, s, 0.01, pins={"method": "quantum"})
        with pytest.raises(ValueError, match="execution_backend must be one of"):
            plan_join(r, s, 0.01, pins={"backend": "quantum"})

    def test_kernel_lists_agree(self, inputs):
        """The planner enumerates, the cost model prices and the wall model
        has constants for one set of kernels, every one of them runnable."""
        from repro.core.cost_model import PRICEABLE_KERNELS, _build_models
        from repro.joins.local import LOCAL_KERNELS

        r, s = inputs
        walled = {g[len("join/"):] for g in WALL_COEFFICIENTS if g.startswith("join/")}
        model = _build_models(r, s, 0.01, 0.03, num_workers=12, seed=0)(2.0)
        priced = set()
        for kernel in set(LOCAL_KERNELS) | walled | set(PRICEABLE_KERNELS):
            try:
                model.predict("lpib", kernel=kernel)
            except ValueError:
                continue
            priced.add(kernel)
        assert set(PRICEABLE_KERNELS) == set(DEFAULT_KERNELS) == walled == priced
        assert priced < set(LOCAL_KERNELS)

    def test_explain_shows_spec_table_and_plan(self, inputs):
        r, s = inputs
        planned = plan_join(r, s, 0.01, pins={"workers": 8})
        text = planned.explain(limit=5)
        assert "logical spec eps=" in text
        assert "n=1,500" in text and "n=1,200" in text
        assert "workers=8" in text  # the pin is reported
        assert "candidates (" in text
        assert "pred wall" in text and "pred model" in text  # both clocks
        assert "objective = wall clock on backend serial" in text
        assert "physical plan [distance]" in text
        assert "*" in text  # the chosen row is marked
        # full spec round-trips through the logical layer
        assert _spec_fields(planned.spec) == _spec_fields(replace(
            JoinSpec.from_pointsets(r, s, 0.01, sample_rate=0.03, seed=0),
            sample_results=planned.spec.sample_results,
        ))

    def test_worker_count_moves_the_predicted_clock(self, inputs):
        r, s = inputs
        planned = plan_join(r, s, 0.01,
                            pins={"method": "lpib", "kernel": "plane_sweep",
                                  "resolution_factor": 2.0})
        by_workers = {c.workers: c.predicted_clock
                      for c in planned.candidates}
        assert len(set(by_workers.values())) > 1


# ----------------------------------------------------------------------
# 2b. two clocks over the same quantities
# ----------------------------------------------------------------------
class TestTwoClocks:
    def test_the_objective_follows_the_backend(self, inputs):
        r, s = inputs
        assert plan_join(r, s, 0.01).clock == "wall"  # serial by default
        # the wall constants were measured on serial: the backends that run
        # their workers side by side keep the parent's objective and pick
        for backend in ("threads", "processes"):
            assert backend_clock(backend) == "modelled"
            parallel = plan_join(
                r, s, 0.01, base=JoinConfig(eps=0.01, execution_backend=backend)
            )
            assert parallel.clock == "modelled"
            assert parallel.chosen.key() == ("uni_s", 4.0, "grid_hash", 4, backend)
            assert repr(parallel.predicted_clock) == "0.042935737004343846"
        asked = plan_join(r, s, 0.01, clock="modelled")
        assert asked.clock == "modelled"
        assert {c.clock for c in asked.candidates} == {"modelled"}
        assert asked.predicted_clock == asked.chosen.modelled_clock
        assert set(CLOCKS) == {"modelled", "wall"}
        with pytest.raises(ValueError, match="unknown clock"):
            plan_join(r, s, 0.01, clock="sundial")

    def test_modelled_clock_is_the_parents_planner(self, inputs):
        """``clock="modelled"`` and backend ``processes`` pick what the
        planner picked before it had a second clock, at the same price."""
        r, s = inputs
        planned = plan_join(r, s, 0.01, clock="modelled")
        assert planned.chosen.key() == ("uni_s", 4.0, "grid_hash", 16, "serial")
        assert repr(planned.predicted_clock) == "0.02081511200434385"
        r2 = gaussian_clusters(2500, seed=3, name="R")
        s2 = uniform(2000, seed=4, name="S")
        on_processes = plan_join(
            r2, s2, 0.012, sample_rate=0.2, seed=1,
            base=JoinConfig(eps=0.012, sample_rate=0.2, seed=1,
                            execution_backend="processes"),
        )
        assert on_processes.chosen.key() == (
            "lpib", 4.0, "grid_hash", 4, "processes"
        )
        # both clocks are priced for every candidate, whichever ranks them
        wall = plan_join(r, s, 0.01)
        assert [c.prediction for c in wall.candidates] == [
            c.prediction for c in planned.candidates
        ]

    def test_serial_wall_never_rewards_a_simulated_worker(self, inputs):
        """On ``serial`` the workers are a loop: more of them is never
        predicted faster, so the fewest offered is what gets chosen."""
        r, s = inputs
        planned = plan_join(r, s, 0.01)
        by_grid = {}
        for c in planned.candidates:
            by_grid.setdefault(c.key()[:3], []).append((c.workers, c.wall_clock))
        for grid, points in by_grid.items():
            walls = [wall for _, wall in sorted(points)]
            assert walls == sorted(walls), grid
        assert planned.chosen.workers == min(DEFAULT_WORKER_CANDIDATES)
        assert planned.predicted_clock == planned.chosen.wall_clock
        assert planned.predicted_clock > 0.0

    def test_wall_is_priced_as_a_line_in_the_worker_count(self, inputs):
        """The planner prices a (method, kernel) at two worker counts and
        interpolates; the terms evaluated at the count itself agree."""
        r, s = inputs
        for c in plan_join(r, s, 0.01).candidates[::7]:
            direct = wall_seconds(c.prediction.quantities())
            assert c.prediction.phases("wall") == pytest.approx(direct, rel=1e-12)
            assert c.prediction.wall_time == pytest.approx(sum(direct.values()))

    def test_memoised_predict_equals_a_fresh_models(self, inputs):
        """Every candidate of the one shared, memoising model per grid ==
        the same prediction from a model that has priced nothing else."""
        from repro.core.cost_model import _build_models
        r, s = inputs
        planned = plan_join(r, s, 0.01)
        assert len(planned.candidates) == FULL_SPACE
        build = _build_models(r, s, 0.01, 0.03, num_workers=12, seed=0)
        for c in planned.candidates:
            fresh = build(c.resolution_factor).predict(
                c.method, kernel=c.kernel, num_workers=c.workers
            )
            assert fresh == c.prediction, c.key()

    def test_every_prediction_is_pinned_to_the_bit(self, inputs):
        """What "bit-identical" means for any rewrite of the pricing: the
        sha256 of every candidate's ``CostPrediction`` repr, in enumeration
        order, on either clock.  Changing a float summation's order or
        length moves it; a rewrite that moves it changes picks, explain
        tables and served payloads, and needs its own justification."""
        r, s = inputs
        for clock in (None, "modelled"):
            planned = plan_join(r, s, 0.01, clock=clock)
            text = "\n".join(repr(c.prediction) for c in planned.candidates)
            assert hashlib.sha256(text.encode()).hexdigest() == (
                "638fb32e90740952ff9836d97cd025b302d8612bcfecbc278d9f4abc30cdf848"
            ), clock

    def test_table_and_payload_show_both_clocks_sorted_by_objective(
        self, inputs
    ):
        r, s = inputs
        for clock in CLOCKS:
            planned = plan_join(r, s, 0.01, clock=clock)
            payload = planned.to_payload(limit=None)
            assert payload["objective"] == clock
            rows = payload["candidates"]
            assert rows[0] == planned.chosen.row()
            assert rows[0]["objective"] == clock
            objective = [row["predicted_clock"] for row in rows]
            assert objective == sorted(objective)
            assert objective == [row[f"predicted_{clock}_clock"] for row in rows]
            first = planned.candidate_table(limit=1).splitlines()[1]
            assert first.split()[0] == "*"

    def test_fingerprints_are_hashed_where_they_are_read(
        self, inputs, monkeypatch
    ):
        from repro.planner import logical
        r, s = inputs
        calls = []
        real = logical.dataset_fingerprint
        monkeypatch.setattr(
            logical, "dataset_fingerprint",
            lambda ps: calls.append(ps) or real(ps),
        )
        planned = plan_join(r, s, 0.01)
        assert calls == []  # a one-shot plan never hashes its inputs
        assert f"fp={real(r)}" in planned.spec.describe()
        assert planned.to_payload()["spec"]["s_fingerprint"] == real(s)
        assert len(calls) == 2  # ... and a spec hashes them once
        # the fingerprints are by content: same sizes, other points
        hashed = JoinSpec.from_pointsets(r, s, 0.01).fingerprints
        other = JoinSpec.from_pointsets(
            uniform(1500, seed=9, name="R"), s, 0.01
        )
        assert other.fingerprints != hashed
        given = JoinSpec.from_pointsets(
            r, s, 0.01, r_fingerprint=real(r), s_fingerprint=real(s)
        )
        assert given.fingerprints == hashed
        assert given.points == ()  # nothing to keep alive


class TestFitWallModel:
    def test_check_reproduces_the_checked_in_coefficients(self):
        """The constants are a pure function of the checked-in table (to
        the sixth digit: ``lstsq`` is as exact as the BLAS under it)."""
        fit = _load_fit_script()
        refit = fit.fit(fit.read_table(fit.TABLE))
        assert fit.same_coefficients(refit, WALL_COEFFICIENTS)
        assert not fit.same_coefficients(
            {**refit, "build": {**refit["build"], "fixed": 0.0}}, WALL_COEFFICIENTS
        )
        # every kernel pays per task what grid_hash, the one measured at
        # more than one worker count, does
        tasks = {WALL_COEFFICIENTS[f"join/{kernel}"]["task"] for kernel in DEFAULT_KERNELS}
        assert len(tasks) == 1 and tasks.pop() > 0.0


class TestEpsBucketAndCache:
    def test_eps_bucket_quantizes_quarter_decades(self):
        assert eps_bucket(0.01) == eps_bucket(0.0105)
        assert eps_bucket(0.009) == eps_bucket(0.01)
        assert eps_bucket(0.001) != eps_bucket(0.01)
        with pytest.raises(ValueError):
            eps_bucket(0.0)

    def test_cache_lru_hits_misses_evictions(self, inputs):
        r, s = inputs
        planned = plan_join(r, s, 0.01)
        cache = PlanCache(capacity=2)
        k1 = PlanCache.key("fp_a", "fp_b", 0.01)
        k2 = PlanCache.key("fp_a", "fp_b", 0.1)
        k3 = PlanCache.key("fp_c", "fp_b", 0.01)
        assert cache.get(k1) is None
        cache.put(k1, planned)
        cache.put(k2, planned)
        assert cache.get(k1) is planned  # refreshes k1's recency
        cache.put(k3, planned)           # evicts k2, the LRU entry
        assert cache.get(k2) is None
        assert cache.get(k3) is planned
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 2

    def test_key_separates_pins_and_buckets(self):
        base = PlanCache.key("a", "b", 0.01)
        assert PlanCache.key("a", "b", 0.0102) == base  # same bucket
        assert PlanCache.key("a", "b", 0.1) != base
        assert PlanCache.key("a", "b", 0.01, {"method": "lpib"}) != base
        assert PlanCache.key("a", "b", 0.01, backend="threads") != base


# ----------------------------------------------------------------------
# 3. the predicted-vs-measured accuracy harness
# ----------------------------------------------------------------------
class TestAccuracyHarness:
    @pytest.fixture(scope="class")
    def planned_run(self):
        r = gaussian_clusters(2500, seed=3, name="R")
        s = uniform(2000, seed=4, name="S")
        planned = plan_join(r, s, 0.012, sample_rate=0.2, seed=1,
                            clock="modelled")
        result = distance_join(r, s, planned.config, plan=planned.plan)
        return planned, result

    def test_serial_clock_error_is_bounded(self, planned_run):
        """A 20% sample prices the serial modelled clocks to ~tens of %."""
        planned, result = planned_run
        errors = clock_errors_from_metrics(
            planned.chosen.prediction, result.metrics
        )
        by_phase = {e.phase: e for e in errors}
        assert abs(by_phase["construction"].relative_error) < 0.5
        assert abs(by_phase["total"].relative_error) < 0.5

    def test_errors_from_live_report(self, planned_run):
        """The report path measures the same clocks the metrics path does."""
        from repro.engine.telemetry import Telemetry
        planned, _ = planned_run
        r = gaussian_clusters(2500, seed=3, name="R")
        s = uniform(2000, seed=4, name="S")
        telemetry = Telemetry.create()
        pred = planned.chosen.prediction
        telemetry.registry.set_meta("planner", {
            "predicted": {"clock": "modelled", **pred.phases("modelled")},
        })
        cfg = replace(planned.config, telemetry=telemetry)
        result = distance_join(r, s, cfg, plan=planned.plan)
        report = telemetry.report().to_json()
        from_report = {e.phase: e for e in replay_reports([report])}
        from_metrics = {
            e.phase: e for e in clock_errors_from_metrics(
                planned.chosen.prediction, result.metrics
            )
        }
        for phase in ("construction", "join", "total"):
            assert from_report[phase].measured == pytest.approx(
                from_metrics[phase].measured
            )

    def test_replay_recorded_reports(self, planned_run):
        """Recorded report JSON with an embedded planner section replays."""
        from repro.engine.telemetry import Telemetry
        planned, _ = planned_run
        r = gaussian_clusters(2500, seed=3, name="R")
        s = uniform(2000, seed=4, name="S")
        telemetry = Telemetry.create()
        cfg = replace(planned.config, telemetry=telemetry)
        distance_join(r, s, cfg, plan=planned.plan)
        pred = planned.chosen.prediction
        telemetry.registry.set_meta("planner", {
            "predicted": {"construction": pred.construction_time,
                          "join": pred.join_time},
        })
        recorded = json.loads(json.dumps(telemetry.report().to_json()))
        unplanned = {"stages": [], "planner": None}
        errors = replay_reports([recorded, unplanned, recorded])
        phases = [e.phase for e in errors]
        assert phases.count("total") == 2  # the unplanned report is skipped
        assert max(abs(e.relative_error) for e in errors if e.phase == "total") < 0.5

    def test_wall_plans_are_scored_against_measured_wall(self, tmp_path):
        """Like with like: a plan priced on the wall clock records that
        clock's name and replays against the stage rows' wall seconds --
        and the same record is a row ``fit_wall_model.py --history`` fits."""
        from repro.engine.telemetry import Telemetry
        from repro.obs import RunHistory
        r = gaussian_clusters(2500, seed=3, name="R")
        s = uniform(2000, seed=4, name="S")
        planned = plan_join(r, s, 0.012, sample_rate=0.2, seed=1)
        assert planned.clock == "wall"
        pred = planned.chosen.prediction
        telemetry = Telemetry.create()
        telemetry.registry.set_meta("planner", planned.run_meta())
        path = str(tmp_path / "history.jsonl")
        with RunHistory(path) as history:
            cfg = replace(planned.config, telemetry=telemetry, history=history)
            result = distance_join(r, s, cfg, plan=planned.plan)
        (report,) = RunHistory(path).reports()
        assert report["planner"]["predicted"] == {
            "clock": "wall", **pred.phases("wall")
        }
        walls = {row["stage"]: row["wall_seconds"] for row in report["stages"]}
        replayed = {e.phase: e for e in replay_reports([report])}
        assert set(replayed) == {"build", "assign", "shuffle", "join", "total"}
        assert replayed["join"].measured == walls["local_join"]
        assert replayed["build"].predicted == pred.phases("wall")["build"]
        assert replayed["total"].predicted == pytest.approx(pred.wall_time)
        live = {e.phase: e for e in
                clock_errors_from_metrics(pred, result.metrics, "wall")}
        assert live["assign"].measured == result.metrics.stage_times["assign"]
        assert live["total"].predicted == replayed["total"].predicted
        (row,) = _load_fit_script().history_rows(path)
        assert row["assign"] == walls["assign"]
        assert wall_seconds(row) == pytest.approx(pred.phases("wall"), rel=1e-12)

    def test_zero_measured(self):
        from repro.planner import ClockError
        err = ClockError("join", predicted=1.0, measured=0.0)
        assert err.relative_error == float("inf")
        assert ClockError("join", 0.0, 0.0).relative_error == 0.0


# ----------------------------------------------------------------------
# 4. auto vs static on the fig10+fig15 mini-suite
# ----------------------------------------------------------------------
MINI_SUITE = [
    # (r_seed_kind, eps, factors): two fig10 points + the fig15 sweep
    ("fig10_a", 0.009, (2.0, 3.0, 4.0)),
    ("fig10_b", 0.015, (2.0, 3.0, 4.0)),
    ("fig15", 0.012, (2.0, 3.0, 4.0, 5.0)),
]


class TestAutoVsStatic:
    @pytest.fixture(scope="class")
    def mini_inputs(self):
        return {
            "fig10_a": (gaussian_clusters(2000, seed=5, name="S1"),
                        gaussian_clusters(1800, seed=6, name="S2")),
            "fig10_b": (uniform(2000, seed=7, name="R1"),
                        gaussian_clusters(1800, seed=5, name="S1")),
            "fig15": (gaussian_clusters(2000, seed=5, name="S1"),
                      gaussian_clusters(1800, seed=6, name="S2")),
        }

    @pytest.mark.parametrize("workload,eps,factors", MINI_SUITE,
                             ids=[w[0] for w in MINI_SUITE])
    def test_auto_never_loses_to_worst_static(
        self, mini_inputs, workload, eps, factors
    ):
        r, s = mini_inputs[workload]
        kernel, workers = "plane_sweep", 8

        def measured(method, factor):
            cfg = JoinConfig(eps=eps, method=method,
                             resolution_factor=factor, local_kernel=kernel,
                             num_workers=workers)
            return distance_join(r, s, cfg).metrics.exec_time_model

        statics = {
            (m, f): measured(m, f)
            for m in ("lpib", "diff", "uni_r", "uni_s")
            for f in factors
        }
        statics[("eps_grid", 1.0)] = measured("eps_grid", 1.0)
        planned = plan_join(
            r, s, eps, pins={"kernel": kernel, "workers": workers},
            factors=factors, sample_rate=0.15, seed=2, clock="modelled",
        )
        auto = measured(planned.chosen.method,
                        planned.chosen.resolution_factor)
        best, worst = min(statics.values()), max(statics.values())
        assert auto <= worst, (
            f"planner lost to worst-static: {auto} > {worst}"
        )
        # regret vs the oracle stays small: the 15% sample prices the
        # method/factor grid well enough to land near the true best
        assert auto <= 1.25 * best, (
            f"planner regret too high: {auto} vs best {best}"
        )


# ----------------------------------------------------------------------
# 5a. pipeline entry: artifact cache/key must arrive as a pair
# ----------------------------------------------------------------------
class TestArtifactCacheKeyPairing:
    def test_key_without_cache_raises(self, inputs):
        r, s = inputs
        cfg = JoinConfig(eps=0.01, artifact_key=("grid", "abc"))
        with pytest.raises(ValueError, match="artifact_key is set"):
            distance_join(r, s, cfg)

    def test_cache_without_key_raises(self, inputs):
        from repro.serving.cache import ArtifactCache
        r, s = inputs
        cfg = JoinConfig(eps=0.01, artifact_cache=ArtifactCache(1 << 20))
        with pytest.raises(ValueError, match="artifact_cache is set"):
            distance_join(r, s, cfg)


# ----------------------------------------------------------------------
# 5b. CLI surfaces: explain + join --tuning auto
# ----------------------------------------------------------------------
class TestCliSurfaces:
    def test_explain_prints_candidate_table(self, capsys):
        from repro.cli import main
        rc = main(["explain", "--r", "S1", "--s", "S2", "--eps", "0.012",
                   "--base-n", "1500", "--limit", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "logical spec eps=" in out
        assert "pred wall" in out and "pred model" in out
        assert "objective = wall clock" in out
        assert "chosen physical plan:" in out

    def test_explain_respects_pins(self, capsys):
        from repro.cli import main
        rc = main(["explain", "--r", "S1", "--s", "S2", "--eps", "0.012",
                   "--base-n", "1500", "--method", "diff",
                   "--kernel", "grid_hash", "--workers", "6",
                   "--limit", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "method=diff" in out and "kernel=grid_hash" in out
        table = out.split("candidates (")[1]
        assert "lpib" not in table and "plane_sweep" not in table

    def test_join_tuning_auto_runs_chosen_plan(self, capsys):
        from repro.cli import main
        rc = main(["join", "--r", "S1", "--s", "S2", "--eps", "0.012",
                   "--base-n", "1500", "--tuning", "auto"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "planner: chose method=" in out
        assert "candidates)" in out

    def test_join_tuning_auto_keeps_explicit_pins(self, capsys):
        from repro.cli import main
        rc = main(["join", "--r", "S1", "--s", "S2", "--eps", "0.012",
                   "--base-n", "1500", "--tuning", "auto",
                   "--method", "diff", "--workers", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "method=diff" in out and "workers=6" in out

    def test_join_tuning_auto_executes_the_seed_it_planned_on(self, capsys):
        """``--seed N`` plans on seed N's sample *and* runs the plan's
        own config: the printed replication is the seed-7 plan's, which
        differs from seed 0's (2449 at these flags)."""
        import re

        from repro.cli import main
        from repro.data.datasets import load_dataset

        r, s = (load_dataset(name, base_n=4000) for name in ("S1", "S2"))
        pins = {"method": "lpib", "kernel": "grid_hash", "workers": 4,
                "resolution_factor": 2.0}
        want = {}
        for seed in (0, 7):
            planned = plan_join(r, s, 0.012, pins=pins, seed=seed)
            assert planned.config.seed == seed
            m = distance_join(r, s, planned.config, planned.plan).metrics
            want[seed] = m.replicated_r + m.replicated_s
        assert want == {0: 2449, 7: 2832}
        rc = main(["join", "--tuning", "auto", "--seed", "7",
                   "--base-n", "4000", "--method", "lpib",
                   "--kernel", "grid_hash", "--workers", "4",
                   "--resolution-factor", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert int(re.search(r"replicated=\s*(\d+)", out).group(1)) == want[7]

    def test_join_tuning_auto_report_has_planner_section(self, capsys):
        from repro.cli import main
        rc = main(["join", "--r", "S1", "--s", "S2", "--eps", "0.012",
                   "--base-n", "1500", "--tuning", "auto", "--report"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "\nplanner\n" in out
        assert "pred" in out and "err" in out

    def test_join_tuning_auto_rejects_other_variants(self, capsys):
        from repro.cli import main
        rc = main(["join", "--join", "generalized", "--tuning", "auto",
                   "--base-n", "500"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no planner" in err

    def test_join_tuning_auto_rejects_unplannable_method(self, capsys):
        from repro.cli import main
        for flag, value, message in (
            ("--method", "naive",
             "method must be one of lpib, diff, uni_r, uni_s, eps_grid; "
             "got 'naive'"),
            ("--kernel", "nested_loop",
             "kernel 'nested_loop' cannot be planned; "
             "priceable: ('plane_sweep', 'grid_hash')"),
        ):
            rc = main(["join", "--tuning", "auto", flag, value,
                       "--base-n", "500"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err == message + "\n"
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--kernel", "nested_loop"])
        assert exc.value.code == 2
        assert "invalid choice: 'nested_loop'" in capsys.readouterr().err

    def test_static_join_unchanged_by_default(self, capsys):
        from repro.cli import main
        rc = main(["join", "--r", "S1", "--s", "S2", "--eps", "0.012",
                   "--base-n", "1500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "method=lpib" in out
        assert "planner:" not in out


# ----------------------------------------------------------------------
# 5c. the serving hook: per-query planning + the plan cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def plan_server():
    from repro.serving import start_in_thread
    from repro.serving.client import connect
    from repro.serving.server import ServerConfig

    handle = start_in_thread(ServerConfig())
    client = connect(handle.address)
    client.register("A", "S1", base_n=1500)
    client.register("B", "S2", base_n=1500)
    yield client
    client.close()
    handle.stop()


class TestServingPlanner:
    def test_auto_query_plans_and_reports_error(self, plan_server):
        resp = plan_server.query("A", "B", 0.012, tuning="auto",
                                 reuse_results=False)
        p = resp["planner"]
        assert p["cache_hit"] is False
        assert p["chosen"]["method"] in DEFAULT_METHODS
        assert p["candidates"] > 1
        assert "total" in p["errors"]
        assert isinstance(p["errors"]["total"]["relative_error"], float)

    def test_plan_cache_shares_eps_bucket(self, plan_server):
        plan_server.query("A", "B", 0.015, tuning="auto",
                          reuse_results=False)
        resp = plan_server.query("A", "B", 0.0151, tuning="auto",
                                 reuse_results=False)
        assert resp["planner"]["cache_hit"] is True
        stats = plan_server.stats()
        assert stats["plan_cache"]["hits"] >= 1
        assert stats["serving"]["plans"] >= 1

    def test_client_pins_travel_and_key_separately(self, plan_server):
        resp = plan_server.query("A", "B", 0.012, tuning="auto",
                                 method="diff", reuse_results=False)
        assert resp["planner"]["chosen"]["method"] == "diff"
        assert resp["planner"]["pins"] == {"method": "diff"}
        assert resp["planner"]["cache_hit"] is False  # pins key apart

    def test_auto_matches_static_results_bit_for_bit(self, plan_server):
        auto = plan_server.query("A", "B", 0.012, tuning="auto",
                                 reuse_results=False, max_pairs=50)
        c = auto["planner"]["chosen"]
        static = plan_server.query(
            "A", "B", 0.012, method=c["method"], kernel=c["kernel"],
            workers=c["workers"], resolution_factor=c["resolution_factor"],
            reuse_results=False, max_pairs=50,
        )
        assert static["results"] == auto["results"]
        assert static["pairs"] == auto["pairs"]

    def test_server_pinned_choices_error_is_targeted(self, plan_server):
        from repro.serving.client import ServerError
        with pytest.raises(ServerError) as exc:
            plan_server.query("A", "B", 0.012, tuning="auto",
                              backend="threads")
        msg = str(exc.value)
        assert "server pins" in msg and "backend=serial" in msg

    def test_bad_tuning_value_rejected(self, plan_server):
        from repro.serving.client import ServerError
        with pytest.raises(ServerError, match="tuning"):
            plan_server.query("A", "B", 0.012, tuning="turbo")

    def test_auto_report_carries_planner_section(self, plan_server):
        resp = plan_server.query("A", "B", 0.012, tuning="auto",
                                 reuse_results=False, report=True)
        assert "planner" in resp["report"]
        assert "plan_cache_hit" in resp["report"]
