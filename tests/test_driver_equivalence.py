"""Cross-driver equivalence matrix.

Two guarantees, both against ``tests/golden/driver_goldens.json`` which
was captured from the **pre-refactor** drivers (PR 3 tree):

1. *Golden matrix* -- every driver, rewritten as a composition of
   :mod:`repro.joins.pipeline` stages, still produces bit-identical
   result sets and integer metrics.  The point distance join must also
   keep its modelled clocks to the last bit (full-precision ``repr``).

2. *Execution equivalence* -- the object and generalized joins, which
   gained the execution surface in this refactor, return pair-sets
   bit-identical to a fault-free serial run when executed on threads or
   processes with fault injection, disk spill and cell checkpointing.
"""

import hashlib
import json
import os

import pytest

from repro.data.generators import gaussian_clusters, real_like
from repro.data.object_generators import (
    random_boxes,
    random_polygons,
    random_polylines,
)
from repro.geometry.point import Side
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.generalized_join import (
    GeneralizedJoinConfig,
    generalized_distance_join,
)
from repro.joins.object_join import (
    ObjectSet,
    object_distance_join,
    object_intersection_join,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "driver_goldens.json"
)

with open(GOLDEN_PATH) as f:
    GOLDENS = json.load(f)


def pairs_digest(pairs) -> str:
    """Order-independent digest (mirrors scripts/capture_driver_goldens.py)."""
    blob = ";".join(f"{a},{b}" for a, b in sorted(pairs)).encode()
    return hashlib.sha256(blob).hexdigest()


def core_metrics(m) -> dict:
    return {
        "replicated_r": int(m.replicated_r),
        "replicated_s": int(m.replicated_s),
        "shuffle_records": int(m.shuffle_records),
        "shuffle_bytes": int(m.shuffle_bytes),
        "remote_records": int(m.remote_records),
        "remote_bytes": int(m.remote_bytes),
        "candidate_pairs": int(m.candidate_pairs),
        "results": int(m.results),
        "grid_cells": int(m.grid_cells),
    }


# ----------------------------------------------------------------------
# golden matrix: refactored drivers == pre-refactor drivers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def distance_inputs():
    return (
        gaussian_clusters(600, seed=1, name="R"),
        gaussian_clusters(550, seed=2, name="S"),
    )


@pytest.mark.parametrize(
    "row", GOLDENS["distance"],
    ids=[f"{r['method']}-{r['cell_assignment']}" for r in GOLDENS["distance"]],
)
def test_distance_matches_pre_refactor_golden(distance_inputs, row):
    r, s = distance_inputs
    cfg = JoinConfig(
        eps=0.02, method=row["method"], num_workers=4,
        cell_assignment=row["cell_assignment"], seed=0,
        local_kernel="plane_sweep",
    )
    res = distance_join(r, s, cfg)
    assert pairs_digest(res.pairs_set()) == row["pairs_sha256"]
    assert core_metrics(res.metrics) == row["metrics"]
    # modelled clocks must not move at all: repr pins every bit
    assert repr(res.metrics.construction_time_model) == (
        row["construction_time_model"]
    )
    assert repr(res.metrics.join_time_model) == row["join_time_model"]


@pytest.fixture(scope="module")
def object_inputs():
    return {
        "boxes_r": ObjectSet(random_boxes(300, Side.R, seed=11), "R"),
        "boxes_s": ObjectSet(random_boxes(300, Side.S, seed=22), "S"),
        "polys": ObjectSet(random_polygons(250, Side.R, seed=31), "P"),
        "lines": ObjectSet(random_polylines(250, Side.S, seed=42), "L"),
    }


@pytest.mark.parametrize(
    "row", GOLDENS["object"],
    ids=[f"{r['workload']}-{r['method']}" for r in GOLDENS["object"]],
)
def test_object_matches_pre_refactor_golden(object_inputs, row):
    if row["workload"] == "boxes-distance":
        res = object_distance_join(
            object_inputs["boxes_r"], object_inputs["boxes_s"], 0.01,
            method=row["method"],
        )
    else:
        res = object_intersection_join(
            object_inputs["polys"], object_inputs["lines"],
            method=row["method"],
        )
    assert pairs_digest(res.pairs_set()) == row["pairs_sha256"]
    assert core_metrics(res.metrics) == row["metrics"]


@pytest.fixture(scope="module")
def generalized_inputs():
    return (
        gaussian_clusters(800, seed=101, name="R"),
        real_like(800, seed=11, name="S"),
    )


@pytest.mark.parametrize(
    "row", GOLDENS["generalized"],
    ids=[f"{r['partition']}-{r['method']}" for r in GOLDENS["generalized"]],
)
def test_generalized_matches_pre_refactor_golden(generalized_inputs, row):
    r, s = generalized_inputs
    cfg = GeneralizedJoinConfig(
        eps=0.02, partition=row["partition"], method=row["method"],
        num_workers=4,
    )
    res = generalized_distance_join(r, s, cfg)
    assert pairs_digest(res.pairs_set()) == row["pairs_sha256"]
    assert core_metrics(res.metrics) == row["metrics"]


# ----------------------------------------------------------------------
# execution equivalence: object + generalized joins under real backends,
# faults, spill and checkpointing return the serial fault-free pair-set
# ----------------------------------------------------------------------
CHAOS_OPTIONS = dict(
    faults="kill:p=1:times=1",
    max_retries=3,
    executor_workers=2,
)


@pytest.fixture(scope="module")
def small_boxes():
    return (
        ObjectSet(random_boxes(200, Side.R, seed=11), "R"),
        ObjectSet(random_boxes(200, Side.S, seed=22), "S"),
    )


@pytest.mark.parametrize("backend", ("threads", "processes"))
def test_object_join_backends_bit_identical(tmp_path, small_boxes, backend):
    r, s = small_boxes
    reference = object_distance_join(r, s, 0.01, num_workers=4)
    assert len(reference) > 0
    res = object_distance_join(
        r, s, 0.01, num_workers=4, execution_backend=backend,
        spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
        **CHAOS_OPTIONS,
    )
    assert res.pairs_set() == reference.pairs_set()
    assert res.metrics.fault_events > 0, "the injected fault never fired"
    assert res.metrics.blocks_spilled > 0
    assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"


@pytest.fixture(scope="module")
def generalized_small_inputs():
    return (
        gaussian_clusters(300, seed=101, name="R"),
        real_like(300, seed=11, name="S"),
    )


@pytest.mark.parametrize("backend", ("threads", "processes"))
def test_generalized_join_backends_bit_identical(
    tmp_path, generalized_small_inputs, backend
):
    r, s = generalized_small_inputs
    base = dict(eps=0.02, partition="quadtree", method="lpib", num_workers=4)
    reference = generalized_distance_join(r, s, GeneralizedJoinConfig(**base))
    assert len(reference) > 0
    res = generalized_distance_join(
        r, s,
        GeneralizedJoinConfig(
            **base, execution_backend=backend,
            spill="disk", spill_dir=str(tmp_path), checkpoint_cells=True,
            **CHAOS_OPTIONS,
        ),
    )
    assert res.pairs_set() == reference.pairs_set()
    assert res.metrics.fault_events > 0, "the injected fault never fired"
    assert res.metrics.blocks_spilled > 0
    assert list(tmp_path.iterdir()) == [], "spill dir not cleaned up"


def test_object_intersection_runs_on_threads(small_boxes):
    """The intersection predicate rides the same staged pipeline."""
    r, s = small_boxes
    reference = object_intersection_join(r, s, num_workers=4)
    res = object_intersection_join(
        r, s, num_workers=4, execution_backend="threads", executor_workers=2,
    )
    assert res.pairs_set() == reference.pairs_set()
    assert res.metrics.execution_backend == "threads"
