"""Property-based tests: the core invariants under random inputs.

Hypothesis drives random point clouds, epsilons, grid shapes and agreement
policies through the full assignment pipeline and checks the two paper
properties (correctness, duplicate-freeness) against the KD-tree oracle;
cells with either side the larger drive the ``grid_hash`` kernel's roles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreements.graph import AgreementGraph
from repro.agreements.marking import generate_duplicate_free_graph
from repro.agreements.policies import (
    DiffPolicy,
    LPiBPolicy,
    UniformPolicy,
    instantiate_pair_types,
)
from repro.data.pointset import PointSet
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.grid import Grid
from repro.grid.statistics import GridStatistics
from repro.joins.distance_join import JoinConfig, distance_join
from repro.joins.local import (
    _BAND_HEIGHT,
    grid_hash_expand,
    grid_hash_join,
    grid_hash_probe,
    nested_loop_join,
    plane_sweep_join,
)
from repro.replication.assign import AdaptiveAssigner
from repro.replication.pbsm import UniversalAssigner
from repro.verify.oracle import verify_assignment


def _cloud(seed, n, extent):
    rng = np.random.default_rng(seed)
    # mix of clustered and uniform points to stress border regions
    n_uniform = n // 2
    xs = [rng.uniform(0, extent, n_uniform)]
    ys = [rng.uniform(0, extent, n_uniform)]
    remaining = n - n_uniform
    centers = rng.uniform(0, extent, (max(1, n // 40), 2))
    idx = rng.integers(0, len(centers), remaining)
    xs.append(np.clip(centers[idx, 0] + rng.normal(0, extent / 15, remaining), 0, extent))
    ys.append(np.clip(centers[idx, 1] + rng.normal(0, extent / 15, remaining), 0, extent))
    xs = np.concatenate(xs)
    ys = np.concatenate(ys)
    return [(i, float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]


def _stats_from(grid, r_pts, s_pts):
    stats = GridStatistics(grid)
    stats.add_points(
        np.array([p[1] for p in r_pts]), np.array([p[2] for p in r_pts]), Side.R
    )
    stats.add_points(
        np.array([p[1] for p in s_pts]), np.array([p[2] for p in s_pts]), Side.S
    )
    return stats


policy_strategy = st.sampled_from(["lpib", "diff", "uni_r", "uni_s", "random"])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(30, 250),
    eps=st.floats(0.4, 1.6),
    extent=st.floats(6.0, 16.0),
    policy_name=policy_strategy,
)
def test_adaptive_assignment_correct_and_duplicate_free(
    seed, n, eps, extent, policy_name
):
    grid = Grid(MBR(0, 0, extent, extent), eps)
    r_pts = _cloud(seed, n, extent)
    s_pts = _cloud(seed + 77, n, extent)
    stats = _stats_from(grid, r_pts, s_pts)

    if policy_name == "random":
        rng = np.random.default_rng(seed)
        pair_types = {
            frozenset(p[:2]): (Side.R if rng.random() < 0.5 else Side.S)
            for p in grid.adjacent_pairs()
        }
    else:
        policy = {
            "lpib": LPiBPolicy(),
            "diff": DiffPolicy(),
            "uni_r": UniformPolicy(Side.R),
            "uni_s": UniformPolicy(Side.S),
        }[policy_name]
        pair_types = instantiate_pair_types(grid, stats, policy)

    graph = AgreementGraph(grid, pair_types, stats)
    generate_duplicate_free_graph(graph)
    res = verify_assignment(AdaptiveAssigner(grid, graph), r_pts, s_pts, eps)
    assert res.ok, res.describe()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(30, 200),
    eps=st.floats(0.4, 1.6),
    extent=st.floats(5.0, 14.0),
    side=st.sampled_from([Side.R, Side.S]),
)
def test_universal_assignment_correct_and_duplicate_free(seed, n, eps, extent, side):
    grid = Grid(MBR(0, 0, extent, extent), eps)
    r_pts = _cloud(seed, n, extent)
    s_pts = _cloud(seed + 31, n, extent)
    res = verify_assignment(UniversalAssigner(grid, side), r_pts, s_pts, eps)
    assert res.ok, res.describe()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(30, 150),
    eps=st.floats(0.3, 1.2),
)
def test_eps_resolution_universal_grid(seed, n, eps):
    """The eps-grid baseline (resolution factor 1) keeps both properties."""
    extent = 8.0
    grid = Grid(MBR(0, 0, extent, extent), eps, resolution_factor=1.0)
    r_pts = _cloud(seed, n, extent)
    s_pts = _cloud(seed + 13, n, extent)
    res = verify_assignment(UniversalAssigner(grid, Side.R), r_pts, s_pts, eps)
    assert res.ok, res.describe()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(50, 300), eps=st.floats(0.3, 1.5))
def test_samj_rtree_join_matches_oracle(seed, n, eps):
    """The SAMJ baseline under random clouds, epsilons and tree shapes."""
    import numpy as np

    from repro.baselines.rtree_join import SamjConfig, rtree_samj_join
    from repro.data.pointset import PointSet
    from repro.verify.oracle import kdtree_pairs

    rng = np.random.default_rng(seed)
    r = PointSet(rng.uniform(0, 10, n), rng.uniform(0, 10, n), name="r")
    s = PointSet(rng.uniform(0, 10, n), rng.uniform(0, 10, n), name="s")
    truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), eps)
    cfg = SamjConfig(eps=eps, leaf_capacity=int(4 + seed % 30))
    res = rtree_samj_join(r, s, cfg)
    assert res.pairs_set() == truth
    assert len(res) == len(truth)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(50, 250), eps=st.floats(0.02, 0.06))
def test_clone_join_matches_oracle(seed, n, eps):
    """The clone join (both-side replication + midpoint ownership)."""
    from unittest import mock

    import numpy as np

    import repro.joins.generalized_join as generalized_join
    from repro.data.pointset import PointSet
    from repro.joins.generalized_join import (
        GeneralizedJoinConfig,
        generalized_distance_join,
    )
    from repro.verify.oracle import kdtree_pairs

    rng = np.random.default_rng(seed)
    r = PointSet(rng.uniform(0, 1, n), rng.uniform(0, 1, n), name="r")
    s = PointSet(rng.uniform(0, 1, n), rng.uniform(0, 1, n), name="s")
    truth = kdtree_pairs(list(r.iter_triples()), list(s.iter_triples()), eps)
    for partition in ("grid", "quadtree"):
        cfg = GeneralizedJoinConfig(eps=eps, partition=partition, method="clone")
        with mock.patch.multiple(generalized_join, SAMPLE_RATE=0.5, SAMPLE_SEED=seed):
            res = generalized_distance_join(r, s, cfg)
        assert res.pairs_set() == truth, partition
        assert len(res) == len(truth), partition


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), eps=st.floats(0.4, 1.4))
def test_replication_never_exceeds_three(seed, eps):
    """With cell sides > 2 eps a point is assigned to at most 4 cells
    (native + 3 replicas), per Sect. 4.1."""
    extent = 12.0
    grid = Grid(MBR(0, 0, extent, extent), eps)
    r_pts = _cloud(seed, 150, extent)
    s_pts = _cloud(seed + 5, 150, extent)
    stats = _stats_from(grid, r_pts, s_pts)
    graph = AgreementGraph(
        grid, instantiate_pair_types(grid, stats, LPiBPolicy()), stats
    )
    generate_duplicate_free_graph(graph)
    assigner = AdaptiveAssigner(grid, graph)
    for pid, x, y in r_pts + s_pts:
        for side in Side:
            assert len(assigner.assign(x, y, side)) <= 4


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), eps=st.floats(0.4, 1.4))
def test_adaptive_replicates_no_more_than_both_uniforms_combined(seed, eps):
    """Sanity bound: per boundary the adaptive choice replicates
    min(R, S) candidates, so its total replication cannot exceed the sum of
    what UNI(R) and UNI(S) replicate."""
    extent = 10.0
    grid = Grid(MBR(0, 0, extent, extent), eps)
    r_pts = _cloud(seed, 200, extent)
    s_pts = _cloud(seed + 3, 200, extent)
    stats = _stats_from(grid, r_pts, s_pts)
    graph = AgreementGraph(
        grid, instantiate_pair_types(grid, stats, LPiBPolicy()), stats
    )
    generate_duplicate_free_graph(graph)
    adaptive = AdaptiveAssigner(grid, graph)

    def total_replicas(assigner):
        total = 0
        for pid, x, y in r_pts:
            total += len(assigner.assign(x, y, Side.R)) - 1
        for pid, x, y in s_pts:
            total += len(assigner.assign(x, y, Side.S)) - 1
        return total

    uni = total_replicas(UniversalAssigner(grid, Side.R)) + total_replicas(
        UniversalAssigner(grid, Side.S)
    )
    assert total_replicas(adaptive) <= uni


# ----------------------------------------------------------------------
# grid_hash: each cell probes with its smaller side
# ----------------------------------------------------------------------
#: A power of two, so lattice points 1/16 apart along an axis are exactly
#: eps apart.
_EPS = 0.25
#: The unit cell's edges, its eps-rim and the kernel's band boundaries.
_BORDERS = np.concatenate((
    [-_EPS, 0.0, np.nextafter(1.0, 0.0), 1.0, 1.0 + _EPS],
    np.arange(-1, 6) * (_EPS * _BAND_HEIGHT),
))


def _coords(rng, n):
    """``n`` coordinates of a unit cell's points and replicas: a third on a
    1/16 lattice (duplicates, pairs exactly eps apart), a third on the
    borders, a third anywhere in the cell and its rim."""
    return np.choose(
        rng.integers(0, 3, n),
        [
            rng.integers(-4, 21, n) / 16.0,
            rng.choice(_BORDERS, n),
            rng.uniform(-_EPS, 1.0 + _EPS, n),
        ],
    )


@st.composite
def _role_cells(draw, roles=("r", "s", "tie", "any")):
    """One task's cells, ``[(r_xs, r_ys, s_xs, s_ys)]``; each cell's sizes
    follow a role drawn from ``roles``: R probes (``|R| < |S|``), S probes
    (``|R| > |S|``), a tie (R probes) or any sizes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = []
    for role in draw(st.lists(st.sampled_from(roles), min_size=1, max_size=6)):
        a, b = draw(st.integers(0, 30)), draw(st.integers(0, 30))
        lo, hi = min(a, b), max(a, b)
        n_r, n_s = {"r": (lo, hi + 1), "s": (hi + 1, lo), "tie": (a, a), "any": (a, b)}[role]
        cells.append(tuple(_coords(rng, n) for n in (n_r, n_r, n_s, n_s)))
    return cells


def _task_columns(cells):
    """Both sides' ``(ids, xs, ys, offsets)``, the cells back to back; ids
    that are not positions and differ between the sides."""

    def side(xi, yi, first_id):
        offsets = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum([len(cell[xi]) for cell in cells], out=offsets[1:])
        ids = first_id + 3 * np.arange(offsets[-1], dtype=np.int64)
        xs = np.concatenate([cell[xi] for cell in cells])
        ys = np.concatenate([cell[yi] for cell in cells])
        return ids, xs, ys, offsets

    return side(0, 1, 1000), side(2, 3, 7)


def _cell(columns, i):
    ids, xs, ys, offsets = columns
    return tuple(a[offsets[i] : offsets[i + 1]] for a in (ids, xs, ys))


def _pairs(r_ids, s_ids):
    return set(zip(r_ids.tolist(), s_ids.tolist()))


@settings(max_examples=60, deadline=None)
@given(cells=_role_cells(), anchored=st.booleans())
def test_grid_hash_pairs_do_not_depend_on_which_side_probes(cells, anchored):
    """``grid_hash_join(R, S)`` == ``grid_hash_join(S, R)`` with the pairs
    swapped, as sets, and both are the truth, duplicate-free.  Swapping the
    arguments swaps the roles of every cell but a tie's."""
    r_cols, s_cols = _task_columns(cells)
    origin = (0.0, 0.0) if anchored else None
    for i in range(len(cells)):
        r, s = _cell(r_cols, i), _cell(s_cols, i)
        rs_r, rs_s, _ = grid_hash_join(*r, *s, _EPS, origin=origin)
        sr_s, sr_r, _ = grid_hash_join(*s, *r, _EPS, origin=origin)
        got = _pairs(rs_r, rs_s)
        assert len(got) == len(rs_r), "duplicate pair"
        assert got == _pairs(sr_r, sr_s)
        assert got == _pairs(*nested_loop_join(*r, *s, _EPS)[:2])


@settings(max_examples=60, deadline=None)
@given(
    cells=st.one_of(_role_cells(("r", "tie")), _role_cells(("s",)), _role_cells()),
    plan_order=st.booleans(),
    anchored=st.booleans(),
)
def test_batch_probe_expand_is_the_cells_one_by_one(cells, plan_order, anchored):
    """Probe + expand over a multi-cell task == the one-cell kernel on each
    cell, concatenated in position order, bit for bit: no cell swapped,
    every cell swapped, and mixed tasks -- in plan order (R-probe cells
    first) or cut any other way."""
    if plan_order:
        cells = sorted(cells, key=lambda cell: len(cell[0]) > len(cell[2]))
    r_cols, s_cols = _task_columns(cells)
    origins = np.zeros((len(cells), 2)) if anchored else None
    probe = grid_hash_probe(*r_cols, *s_cols, _EPS, origins)
    out_r = np.empty(probe.total, dtype=np.int64)
    out_s = np.empty(probe.total, dtype=np.int64)
    end, bounds = grid_hash_expand(probe, out_r, out_s)
    one = [
        grid_hash_join(
            *_cell(r_cols, i), *_cell(s_cols, i), _EPS,
            origin=None if origins is None else tuple(origins[i]),
        )
        for i in range(len(cells))
    ]
    np.testing.assert_array_equal(out_r[:end], np.concatenate([o[0] for o in one]))
    np.testing.assert_array_equal(out_s[:end], np.concatenate([o[1] for o in one]))
    np.testing.assert_array_equal(np.diff(bounds), [len(o[0]) for o in one])
    assert probe.candidates.tolist() == [o[2] for o in one]
    assert probe.swapped.tolist() == [len(cell[0]) > len(cell[2]) for cell in cells]


@settings(max_examples=30, deadline=None)
@given(cells=_role_cells(), far_side=st.sampled_from("RS"))
def test_grid_hash_declines_past_its_key_range(cells, far_side):
    """A point 2^21 eps from the rest: the probe declines whichever side
    probes, and the one-cell kernel answers with ``plane_sweep_join``'s
    pairs, in its order."""
    r_xs, r_ys, s_xs, s_ys = cells[0]
    far, near = np.array([2.0**21 * _EPS]), np.array([0.5])
    # one point on each side at least, the far one on ``far_side``
    r_xs = np.append(r_xs, far if far_side == "R" else near)
    s_xs = np.append(s_xs, far if far_side == "S" else near)
    r_ys, s_ys = np.append(r_ys, near), np.append(s_ys, near)
    r = (np.arange(len(r_xs), dtype=np.int64), r_xs, r_ys)
    s = (np.arange(len(s_xs), dtype=np.int64) + 1000, s_xs, s_ys)
    r_off = np.array([0, len(r_xs)], dtype=np.int64)
    s_off = np.array([0, len(s_xs)], dtype=np.int64)
    assert grid_hash_probe(*r, r_off, *s, s_off, _EPS, None) is None
    got = grid_hash_join(*r, *s, _EPS)
    want = plane_sweep_join(*r, *s, _EPS)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert _pairs(got[0], got[1]) == _pairs(*nested_loop_join(*r, *s, _EPS)[:2])


# ----------------------------------------------------------------------
# The array passes against their scalar references
# ----------------------------------------------------------------------
def _small_graph(nx, ny, seed, source):
    """A 2 eps grid of ``nx x ny`` cells (eps = 1) with sampled statistics
    and random, LPiB or DIFF agreements, unmarked."""
    eps = 1.0
    grid = Grid(MBR(0.0, 0.0, 2 * eps * (nx + 0.5), 2 * eps * (ny + 0.5)), eps)
    assert (grid.nx, grid.ny) == (nx, ny)
    rng = np.random.default_rng(seed)
    stats = GridStatistics(grid)
    for side in Side:
        k = int(rng.integers(5, 60))
        stats.add_points(rng.uniform(0, grid.mbr.xmax, k), rng.uniform(0, grid.mbr.ymax, k), side)
    if source == "random":
        pair_types = {
            frozenset(p[:2]): Side.R if rng.random() < 0.5 else Side.S
            for p in grid.adjacent_pairs()
        }
    else:
        policy = LPiBPolicy() if source == "lpib" else DiffPolicy()
        pair_types = instantiate_pair_types(grid, stats, policy)
    return grid, AgreementGraph(grid, pair_types, stats), rng


def _points_at_the_seams(grid, rng, n):
    """Points on and an ulp or a jitter off the cell borders, at the quartet
    reference points, on the eps circles around them (MeDuPAr's natural
    replication) and the 2 eps ones (SupAr's reach), plus uniform ones."""
    import math

    eps = grid.eps
    xs_b = grid.mbr.xmin + grid.cell_w * np.arange(grid.nx + 1)
    ys_b = grid.mbr.ymin + grid.cell_h * np.arange(grid.ny + 1)

    def near(v):
        return rng.choice([v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf),
                           v + eps, v - eps, v + rng.normal(0, 0.3 * eps)])

    pts = []
    for _ in range(n):
        kind = rng.integers(5)
        x, y = rng.uniform(0, grid.mbr.xmax), rng.uniform(0, grid.mbr.ymax)
        if kind == 0:  # a vertical or a horizontal border
            if rng.random() < 0.5:
                x = near(float(rng.choice(xs_b)))
            else:
                y = near(float(rng.choice(ys_b)))
        elif kind < 4:  # a reference point, its eps and its 2 eps circle
            rx, ry = float(rng.choice(xs_b[1:-1])), float(rng.choice(ys_b[1:-1]))
            jitter = rng.choice([0.0, 1e-9, -1e-9, 0.05, -0.05])
            radius, angle = (kind - 1) * eps * (1 + jitter), rng.uniform(0, 2 * math.pi)
            x, y = rx + radius * math.cos(angle), ry + radius * math.sin(angle)
        pts.append((x, y))
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


@settings(max_examples=30, deadline=None)
@given(
    nx=st.integers(3, 6),
    ny=st.integers(3, 6),
    seed=st.integers(0, 10_000),
    source=st.sampled_from(["random", "lpib", "diff"]),
)
def test_assign_batch_is_the_scalar_assign_at_the_seams(nx, ny, seed, source):
    """``assign_batch`` == ``assign()`` point by point, emission order
    included, where the zone, MeDuPAr and SupAr tests are closest to flipping."""
    from tests.test_exhaustive_quartet import assert_batch_equals_reference

    grid, graph, rng = _small_graph(nx, ny, seed, source)
    generate_duplicate_free_graph(graph)
    xs, ys = _points_at_the_seams(grid, rng, 300)
    assert_batch_equals_reference(AdaptiveAssigner(grid, graph), xs, ys, (nx, ny, seed, source))


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(3, 6),
    ny=st.integers(3, 6),
    seed=st.integers(0, 10_000),
    source=st.sampled_from(["random", "lpib", "diff"]),
    ordering=st.sampled_from(["paper", "weight_only", "arbitrary"]),
)
def test_lockstep_marking_is_mark_quartet_per_quartet(nx, ny, seed, source, ordering):
    """``generate_duplicate_free_graph`` leaves the marks, the locks and the
    report that ``mark_quartet`` leaves quartet by quartet."""
    import copy

    from repro.agreements.marking import MarkingReport, mark_quartet

    grid, graph, _ = _small_graph(nx, ny, seed, source)
    reference = copy.deepcopy(graph)
    expected = MarkingReport()
    for sub in reference.quartets.values():
        expected.merge(mark_quartet(sub, ordering))
    assert generate_duplicate_free_graph(graph, ordering) == expected
    assert np.array_equal(graph.marked, reference.marked)
    assert np.array_equal(graph.locked, reference.locked)


# ----------------------------------------------------------------------
# The default configuration end to end
# ----------------------------------------------------------------------
def _assert_default_join_is_the_nested_loop(r_xs, r_ys, s_xs, s_ys, eps, **config):
    """A default-config ``distance_join`` returns ``nested_loop_join``'s
    pair set over the whole inputs, each pair once without a dedup pass."""
    r = PointSet(r_xs, r_ys, name="R")
    s = PointSet(s_xs, s_ys, name="S", ids=1000 + np.arange(len(s_xs)))
    got = distance_join(r, s, JoinConfig(eps=eps, num_workers=3, **config))
    pairs = list(zip(got.r_ids.tolist(), got.s_ids.tolist()))
    assert len(pairs) == len(set(pairs))
    want = nested_loop_join(r.ids, r.xs, r.ys, s.ids, s.xs, s.ys, eps)
    assert set(pairs) == _pairs(*want[:2])


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(3, 6),
    ny=st.integers(3, 6),
    seed=st.integers(0, 10_000),
    method=st.sampled_from(["lpib", "diff", "uni_r", "eps_grid"]),
)
def test_default_join_is_the_nested_loop_at_the_seams(nx, ny, seed, method):
    """Points on, an ulp off and eps off the join grid's borders and
    quartet reference points, those inside its MBR; the MBR's opposite
    corners, added to R, make it the data's, so the join builds that grid."""
    grid, _, rng = _small_graph(nx, ny, seed, "random")
    box = grid.mbr
    columns = []
    for _side in Side:
        xs, ys = _points_at_the_seams(grid, rng, 150)
        inside = (box.xmin <= xs) & (xs <= box.xmax) & (box.ymin <= ys) & (ys <= box.ymax)
        columns += [xs[inside], ys[inside]]
    columns[0] = np.r_[columns[0], box.xmin, box.xmax]
    columns[1] = np.r_[columns[1], box.ymin, box.ymax]
    _assert_default_join_is_the_nested_loop(*columns, grid.eps, method=method)


@settings(max_examples=25, deadline=None)
@given(
    cells=st.one_of(_role_cells(("tie",)), _role_cells()),
    method=st.sampled_from(["lpib", "diff", "uni_s"]),
)
def test_default_join_is_the_nested_loop_on_lattices_and_ties(cells, method):
    """The kernel strategies' cells side by side, one unit apart: lattice
    duplicates, pairs exactly eps apart, points on the kernel's band
    borders, and cells with as many R as S points."""
    r_xs, r_ys, s_xs, s_ys = (
        np.concatenate([cell[k] + (i if k % 2 == 0 else 0) for i, cell in enumerate(cells)])
        for k in range(4)
    )
    _assert_default_join_is_the_nested_loop(r_xs, r_ys, s_xs, s_ys, _EPS, method=method)
