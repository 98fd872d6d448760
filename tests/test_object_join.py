"""Integration tests for object joins (the Sect. 8 extension)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.joins.object_join as object_join
from repro.data.object_generators import (
    random_boxes,
    random_polygons,
    random_polylines,
)
from repro.geometry.objects import objects_intersect
from repro.geometry.point import Side
from repro.joins.object_join import (
    ObjectSet,
    object_distance_join,
    object_intersection_join,
)

EPS = 0.01


def brute_distance(r_objs, s_objs, eps):
    return {
        (a.pid, b.pid)
        for a in r_objs
        for b in s_objs
        if a.distance_to(b) <= eps
    }


def brute_intersection(r_objs, s_objs):
    return {
        (a.pid, b.pid) for a in r_objs for b in s_objs if objects_intersect(a, b)
    }


@pytest.fixture(scope="module")
def box_sets():
    r = random_boxes(500, Side.R, seed=11)
    s = random_boxes(500, Side.S, seed=22)
    return ObjectSet(r, "boxesR"), ObjectSet(s, "boxesS"), r, s


@pytest.fixture(scope="module")
def mixed_sets():
    r = random_polygons(400, Side.R, seed=31)
    s = random_polylines(400, Side.S, seed=42)
    return ObjectSet(r, "polys"), ObjectSet(s, "lines"), r, s


class TestDistanceJoin:
    @pytest.mark.parametrize("method", ["lpib", "diff", "uni_r", "uni_s", "eps_grid"])
    def test_boxes_match_brute_force(self, box_sets, method):
        r, s, r_objs, s_objs = box_sets
        truth = brute_distance(r_objs, s_objs, EPS)
        res = object_distance_join(r, s, EPS, method=method)
        assert res.pairs_set() == truth
        assert len(res) == len(truth)  # duplicate-free

    def test_polygons_vs_polylines(self, mixed_sets):
        r, s, r_objs, s_objs = mixed_sets
        truth = brute_distance(r_objs, s_objs, EPS)
        res = object_distance_join(r, s, EPS, method="lpib")
        assert res.pairs_set() == truth

    def test_sides_can_be_swapped(self, box_sets):
        r, s, r_objs, s_objs = box_sets
        truth = brute_distance(r_objs, s_objs, EPS)
        res = object_distance_join(s, r, EPS, method="diff")
        assert {(b, a) for a, b in res.pairs_set()} == truth

    def test_adaptive_replicates_less(self, box_sets):
        r, s, _r_objs, _s_objs = box_sets
        adaptive = object_distance_join(r, s, EPS, method="lpib").metrics
        uni_r = object_distance_join(r, s, EPS, method="uni_r").metrics
        uni_s = object_distance_join(r, s, EPS, method="uni_s").metrics
        assert adaptive.replicated_total < min(
            uni_r.replicated_total, uni_s.replicated_total
        )

    def test_negative_eps_rejected(self, box_sets):
        r, s, _r, _s = box_sets
        with pytest.raises(ValueError):
            object_distance_join(r, s, -1.0)

    def test_zero_eps_is_touch_join(self, box_sets):
        r, s, r_objs, s_objs = box_sets
        res = object_distance_join(r, s, 0.0, method="lpib")
        assert res.pairs_set() == brute_distance(r_objs, s_objs, 0.0)


class TestIntersectionJoin:
    @pytest.mark.parametrize("method", ["lpib", "uni_r"])
    def test_boxes(self, box_sets, method):
        r, s, r_objs, s_objs = box_sets
        truth = brute_intersection(r_objs, s_objs)
        res = object_intersection_join(r, s, method=method)
        assert res.pairs_set() == truth

    def test_polygons_vs_polylines(self, mixed_sets):
        r, s, r_objs, s_objs = mixed_sets
        truth = brute_intersection(r_objs, s_objs)
        res = object_intersection_join(r, s, method="diff")
        assert res.pairs_set() == truth

    def test_intersection_subset_of_distance_join(self, box_sets):
        r, s, _r_objs, _s_objs = box_sets
        inter = object_intersection_join(r, s, method="lpib").pairs_set()
        dist = object_distance_join(r, s, EPS, method="lpib").pairs_set()
        assert inter <= dist


class TestDegenerateObjects:
    def test_one_giant_object_collapses_grid(self):
        """A single domain-spanning object forces eps_eff near the domain
        extent; the join must still be exact on the resulting tiny grid."""
        from repro.geometry.mbr import MBR
        from repro.geometry.objects import BoxObject

        giant = BoxObject(0, MBR(0.05, 0.05, 0.95, 0.95), Side.R)
        small = random_boxes(100, Side.S, mean_size=0.01, seed=9)
        r = ObjectSet([giant], "giant")
        s = ObjectSet(small, "smalls")
        res = object_distance_join(r, s, 0.01, method="lpib")
        truth = brute_distance([giant], small, 0.01)
        assert res.pairs_set() == truth
        assert len(truth) > 0  # the giant touches most of the space

    def test_single_object_each_side(self):
        from repro.geometry.mbr import MBR
        from repro.geometry.objects import BoxObject

        a = BoxObject(1, MBR(0.1, 0.1, 0.2, 0.2), Side.R)
        b = BoxObject(2, MBR(0.25, 0.1, 0.3, 0.2), Side.S)
        res = object_distance_join(ObjectSet([a]), ObjectSet([b]), 0.06)
        assert res.pairs_set() == {(1, 2)}
        res = object_distance_join(ObjectSet([a]), ObjectSet([b]), 0.04)
        assert len(res) == 0

    def test_degenerate_all_point_objects_zero_eps(self):
        from repro.geometry.mbr import MBR
        from repro.geometry.objects import BoxObject

        a = BoxObject(1, MBR(0.5, 0.5, 0.5, 0.5), Side.R)  # zero-extent
        b = BoxObject(2, MBR(0.5, 0.5, 0.5, 0.5), Side.S)
        with pytest.raises(ValueError):
            # eps 0 and zero radii: nothing to build a grid from
            from repro.joins.object_join import object_join

            object_join(ObjectSet([a]), ObjectSet([b]), 0.0, lambda x, y: True)


class TestObjectSet:
    def test_empty_set_has_no_side(self):
        empty = ObjectSet([])
        assert len(empty) == 0 and empty.side is None

    @pytest.mark.parametrize("join", ["distance", "intersection"])
    def test_an_empty_side_yields_no_pairs(self, join):
        empty = ObjectSet([], name="none")
        r = ObjectSet(random_boxes(50, Side.R, seed=1), name="r")
        s = ObjectSet(random_boxes(50, Side.S, seed=2), name="s")
        for a, b in ((empty, s), (r, empty), (empty, empty)):
            if join == "distance":
                res = object_distance_join(a, b, EPS)
            else:
                res = object_intersection_join(a, b)
            assert len(res.r_ids) == len(res.s_ids) == 0, (a.name, b.name)
            assert res.metrics.results == 0

    def test_mixed_sides_rejected(self):
        objs = random_boxes(2, Side.R, seed=1) + random_boxes(2, Side.S, seed=2)
        with pytest.raises(ValueError):
            ObjectSet(objs)

    def test_same_side_join_rejected(self, box_sets):
        r, _s, _r_objs, _s_objs = box_sets
        with pytest.raises(ValueError):
            object_distance_join(r, r, EPS)

    def test_max_radius(self, box_sets):
        r, _s, r_objs, _s_objs = box_sets
        assert r.max_radius == pytest.approx(max(o.radius() for o in r_objs))

    def test_mbr_covers_objects(self, box_sets):
        r, _s, r_objs, _s_objs = box_sets
        m = r.mbr()
        for obj in r_objs:
            assert m.intersects(obj.mbr())


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 5000),
    n=st.integers(30, 200),
    eps=st.floats(0.003, 0.03),
    method=st.sampled_from(["lpib", "diff", "uni_r", "uni_s"]),
    mean_size=st.floats(0.002, 0.02),
)
def test_property_box_join_matches_brute_force(seed, n, eps, method, mean_size):
    r_objs = random_boxes(n, Side.R, mean_size=mean_size, seed=seed)
    s_objs = random_boxes(n, Side.S, mean_size=mean_size, seed=seed + 1)
    truth = brute_distance(r_objs, s_objs, eps)
    with mock.patch.object(object_join, "SAMPLE_RATE", 0.5):
        res = object_distance_join(ObjectSet(r_objs), ObjectSet(s_objs), eps, method=method)
    assert res.pairs_set() == truth
    assert len(res) == len(truth)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 5000),
    n=st.integers(30, 150),
)
def test_property_intersection_join_matches_brute_force(seed, n):
    r_objs = random_polygons(n, Side.R, mean_size=0.02, seed=seed)
    s_objs = random_polylines(n, Side.S, mean_size=0.02, seed=seed + 1)
    truth = brute_intersection(r_objs, s_objs)
    res = object_intersection_join(ObjectSet(r_objs), ObjectSet(s_objs))
    assert res.pairs_set() == truth


class TestMetrics:
    def test_metrics_populated(self, box_sets):
        r, s, _r_objs, _s_objs = box_sets
        m = object_distance_join(r, s, EPS, method="lpib").metrics
        assert m.method == "object-lpib"
        assert m.input_r == len(r) and m.input_s == len(s)
        assert m.shuffle_records == len(r) + len(s) + m.replicated_total
        assert m.candidate_pairs >= m.results
        assert m.exec_time_model > 0

    def test_payload_inflates_shuffle(self):
        lean = ObjectSet(random_boxes(300, Side.R, seed=5), "lean")
        fat = ObjectSet(random_boxes(300, Side.R, seed=5, payload_bytes=200), "fat")
        s = ObjectSet(random_boxes(300, Side.S, seed=6), "s")
        lean_m = object_distance_join(lean, s, EPS).metrics
        fat_m = object_distance_join(fat, s, EPS).metrics
        assert fat_m.shuffle_bytes > lean_m.shuffle_bytes
        assert fat_m.results == lean_m.results
