"""Exhaustive point-level verification of the adaptive-replication core.

These are the arbiters for Theorems/Lemmas 4.5-4.8 and Algorithms 1-4: on
small grids we enumerate agreement-type assignments and verify -- against
dense near-corner point clouds -- that the marked graph yields a join
partitioning that is simultaneously *correct* (no pair lost) and
*duplicate-free* (no pair reported twice).
"""

import itertools
import math
import random

import numpy as np
import pytest

from repro.agreements.graph import AgreementGraph
from repro.agreements.marking import generate_duplicate_free_graph
from repro.geometry.mbr import MBR
from repro.geometry.point import Side
from repro.grid.areas import AreaKind, classify_point
from repro.grid.grid import Grid
from repro.replication.assign import AdaptiveAssigner, _root_le
from repro.verify.oracle import kdtree_pairs, verify_assignment

EPS = 1.0


def dense_points(x_hi, y_hi, step=0.5, offset=(0.0, 0.0)):
    pts = []
    pid = 0
    x = 0.3 + offset[0]
    while x <= x_hi:
        y = 0.3 + offset[1]
        while y <= y_hi:
            pts.append((pid, round(x, 6), round(y, 6)))
            pid += 1
            y += step
        x += step
    return pts


@pytest.fixture(scope="module")
def grid_2x2():
    return Grid(MBR(0, 0, 5, 5), EPS)


@pytest.fixture(scope="module")
def cloud_2x2():
    r_pts = dense_points(4.7, 4.7)
    s_pts = dense_points(4.7, 4.7, offset=(0.09, 0.07))
    return r_pts, s_pts, kdtree_pairs(r_pts, s_pts, EPS)


def test_all_64_agreement_instances_on_one_quartet(grid_2x2, cloud_2x2):
    r_pts, s_pts, expected = cloud_2x2
    pairs = [frozenset(p[:2]) for p in grid_2x2.adjacent_pairs()]
    assert len(pairs) == 6
    for combo in itertools.product([Side.R, Side.S], repeat=6):
        graph = AgreementGraph(grid_2x2, dict(zip(pairs, combo)))
        generate_duplicate_free_graph(graph)
        res = verify_assignment(
            AdaptiveAssigner(grid_2x2, graph), r_pts, s_pts, EPS, expected=expected
        )
        assert res.ok, (combo, res.describe())


def test_random_weights_change_marking_order_not_properties(grid_2x2, cloud_2x2):
    """Algorithm 1's outcome depends on edge weights; every outcome must
    still be correct and duplicate-free."""
    r_pts, s_pts, expected = cloud_2x2
    pairs = [frozenset(p[:2]) for p in grid_2x2.adjacent_pairs()]
    rng = random.Random(42)
    for _ in range(40):
        combo = [rng.choice([Side.R, Side.S]) for _ in pairs]
        graph = AgreementGraph(grid_2x2, dict(zip(pairs, combo)))
        for sub in graph.quartets.values():
            for e in sub.edges():
                e.weight = rng.randrange(1000)
        generate_duplicate_free_graph(graph)
        res = verify_assignment(
            AdaptiveAssigner(grid_2x2, graph), r_pts, s_pts, EPS, expected=expected
        )
        assert res.ok, (combo, res.describe())


def test_cross_quartet_interactions_on_3x2_grid():
    """Two quartets share a side pair (two independent edge copies); a
    random sample of the 2^11 agreement instances must stay correct and
    duplicate-free, including supplementary areas that reach across."""
    grid = Grid(MBR(0, 0, 7.5, 5), EPS)
    assert (grid.nx, grid.ny) == (3, 2)
    pairs = [frozenset(p[:2]) for p in grid.adjacent_pairs()]
    assert len(pairs) == 11
    r_pts = dense_points(7.2, 4.7)
    s_pts = dense_points(7.2, 4.7, offset=(0.09, 0.07))
    expected = kdtree_pairs(r_pts, s_pts, EPS)

    rng = random.Random(7)
    combos = [
        tuple(rng.choice([Side.R, Side.S]) for _ in pairs) for _ in range(150)
    ]
    # always include the two uniform instances and an alternating one
    combos += [
        tuple([Side.R] * 11),
        tuple([Side.S] * 11),
        tuple(Side.R if i % 2 else Side.S for i in range(11)),
    ]
    for combo in combos:
        graph = AgreementGraph(grid, dict(zip(pairs, combo)))
        for sub in graph.quartets.values():
            for e in sub.edges():
                e.weight = rng.randrange(1000)
        generate_duplicate_free_graph(graph)
        res = verify_assignment(
            AdaptiveAssigner(grid, graph), r_pts, s_pts, EPS, expected=expected
        )
        assert res.ok, (combo, res.describe())


def test_narrow_cells_supplementary_overlap():
    """Cell sides barely above 2 eps maximize area overlaps (supplementary
    areas spanning most of a cell)."""
    grid = Grid(MBR(0, 0, 4.2, 4.2), EPS)
    assert grid.cell_w == pytest.approx(2.1)
    pairs = [frozenset(p[:2]) for p in grid.adjacent_pairs()]
    r_pts = dense_points(4.0, 4.0, step=0.4)
    s_pts = dense_points(4.0, 4.0, step=0.4, offset=(0.06, 0.11))
    expected = kdtree_pairs(r_pts, s_pts, EPS)
    for combo in itertools.product([Side.R, Side.S], repeat=len(pairs)):
        graph = AgreementGraph(grid, dict(zip(pairs, combo)))
        generate_duplicate_free_graph(graph)
        res = verify_assignment(
            AdaptiveAssigner(grid, graph), r_pts, s_pts, EPS, expected=expected
        )
        assert res.ok, (combo, res.describe())


def test_interior_cell_on_3x3_grid():
    """A fully surrounded cell participates in four quartets at once; its
    points can replicate across any of its eight borders/corners."""
    grid = Grid(MBR(0, 0, 7.5, 7.5), EPS)
    assert (grid.nx, grid.ny) == (3, 3)
    pairs = [frozenset(p[:2]) for p in grid.adjacent_pairs()]
    assert len(pairs) == 20

    # concentrate points around the centre cell's borders and corners
    r_pts = dense_points(7.2, 7.2, step=0.55)
    s_pts = dense_points(7.2, 7.2, step=0.55, offset=(0.08, 0.06))
    expected = kdtree_pairs(r_pts, s_pts, EPS)

    rng = random.Random(19)
    combos = [
        tuple(rng.choice([Side.R, Side.S]) for _ in pairs) for _ in range(45)
    ]
    combos.append(tuple([Side.R] * 20))
    combos.append(tuple(Side.R if i % 2 else Side.S for i in range(20)))
    for combo in combos:
        graph = AgreementGraph(grid, dict(zip(pairs, combo)))
        for sub in graph.quartets.values():
            for e in sub.edges():
                e.weight = rng.randrange(100)
        generate_duplicate_free_graph(graph)
        res = verify_assignment(
            AdaptiveAssigner(grid, graph), r_pts, s_pts, EPS, expected=expected
        )
        assert res.ok, (combo, res.describe())


def test_unmarked_mixed_graph_is_correct_but_duplicates(grid_2x2, cloud_2x2):
    """Corollary 4.6 and Lemma 4.8: without marking, correctness holds but
    the duplicate-free property is lost for mixed instances."""
    r_pts, s_pts, expected = cloud_2x2
    pairs = [frozenset(p[:2]) for p in grid_2x2.adjacent_pairs()]
    saw_duplicates = False
    for combo in itertools.product([Side.R, Side.S], repeat=6):
        graph = AgreementGraph(grid_2x2, dict(zip(pairs, combo)))
        # no marking pass
        res = verify_assignment(
            AdaptiveAssigner(grid_2x2, graph), r_pts, s_pts, EPS, expected=expected
        )
        assert res.correct, (combo, res.describe())
        if not res.duplicate_free:
            saw_duplicates = True
    assert saw_duplicates, "expected duplicates for some mixed instance"


# ----------------------------------------------------------------------
# assign_batch == assign(), point by point, in values and order
# ----------------------------------------------------------------------
def degenerate_points(grid):
    """Coordinates chosen to sit on every comparison ``assign`` makes.

    Per axis: each interior grid line with ``eps`` to either side of it --
    all three exactly and one ulp off -- and half an ``eps`` in; each outer
    edge exactly, one ulp inside and outside, and ``eps`` inside; a cell
    centre; positions well outside the MBR.  The cloud is their cross
    product (line x line = quartet corners, ``eps`` x line = exactly ``eps``
    from a reference point), plus circles of radius ``eps`` and ``2 eps``
    around every reference point, plus a block of duplicates.

    One kind of point is left out.  ``medupar``/``supar`` root the distance
    to the reference point (``euclidean(...) <= eps``) where ``assign_batch``
    -- like the join kernels -- compares squares (``dx*dx + dy*dy <= eps*eps``);
    within an ulp of the circle the two readings can differ, and either is
    correct (no partner can lie that exactly behind the reference point
    without the kernels' own squared test agreeing).  Points on which they
    differ are dropped; enough circle points survive to pin both readings.
    """
    eps = grid.eps

    def ulps(v):
        return (v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf))

    def axis(lo, step, n):
        hi = lo + n * step
        vals = {lo - 0.7 * step, hi + 0.4 * step, lo + 0.5 * step}
        vals.update((*ulps(lo), *ulps(hi), lo + eps, hi - eps))
        for i in range(1, n):
            line = lo + i * step
            vals.update((*ulps(line), *ulps(line + eps), *ulps(line - eps), line + 0.5 * eps))
        return sorted(vals)

    def readings_agree(x, y):
        for corner in grid.interior_corners():
            rx, ry = grid.corner_coords(*corner)
            d2 = (x - rx) * (x - rx) + (y - ry) * (y - ry)
            if (d2 <= eps * eps) != (d2**0.5 <= eps):
                return False
            if (d2 > 4.0 * eps * eps) != (d2**0.5 > 2.0 * eps):
                return False
        return True

    pts = list(itertools.product(axis(grid.mbr.xmin, grid.cell_w, grid.nx),
                                 axis(grid.mbr.ymin, grid.cell_h, grid.ny)))
    circles = []
    for corner in grid.interior_corners():
        rx, ry = grid.corner_coords(*corner)
        for radius in (eps, 2 * eps):
            circles += [(rx + radius, ry), (rx, ry - radius)]
            # 3-4-5 directions land on the circle to the last bit or two
            for ux, uy in ((0.6, 0.8), (-0.8, 0.6), (0.28, -0.96), (-0.6, -0.8)):
                circles.append((rx + radius * ux, ry + radius * uy))
            for k in range(6):
                t = 2 * math.pi * (k + 0.37) / 6
                circles.append((rx + radius * math.cos(t), ry + radius * math.sin(t)))
    kept = [p for p in pts + circles if readings_agree(*p)]
    assert len(pts) + len(circles) - len(kept) <= len(circles) // 2
    pts = kept + kept[:: max(1, len(kept) // 40)]  # duplicates
    arr = np.array(pts, dtype=np.float64)
    return arr[:, 0], arr[:, 1]


def assert_batch_equals_reference(assigner, xs, ys, context):
    """The emission-order contract of ``assign_batch``: the no-replication
    points first, then each border point as native cell + extras ascending."""
    grid = assigner.grid
    points = list(zip(xs.tolist(), ys.tolist()))
    inner = [
        i for i, (x, y) in enumerate(points)
        if classify_point(grid, x, y).kind is AreaKind.NO_REPLICATION
    ]
    border = sorted(set(range(len(points))) - set(inner))
    for side in Side:
        rows = [assigner.assign(x, y, side) for x, y in points]
        assert all(len(rows[i]) == 1 for i in inner)
        cells, idxs = assigner.assign_batch(xs, ys, side)
        assert cells.dtype == np.int64 and idxs.dtype == np.int64
        assert cells.tolist() == [rows[i][0] for i in inner] + [c for i in border for c in rows[i]], (context, side)
        assert idxs.tolist() == inner + [i for i in border for _ in rows[i]], (context, side)


BATCH_GRIDS = {
    "2x2": (MBR(0, 0, 5, 5), 2.0, "all"),
    "3x2": (MBR(0, 0, 7.5, 5), 2.0, 40),
    "3x3": (MBR(0, 0, 7.5, 7.5), 2.0, 25),
    "narrow": (MBR(0, 0, 4.2, 4.2), 2.0, "all"),  # cell sides barely above 2 eps
    # cell sides below 2 eps: a point can be within eps of both the east and
    # the west border, and east must win as in classify_point
    "thin": (MBR(0, 0, 5, 5), 1.2, 10),
}


@pytest.mark.parametrize("name", BATCH_GRIDS)
def test_batch_equals_reference_on_degenerate_points(name):
    """Every agreement instance of the one-quartet grids (all 64), and a
    sample on the multi-quartet ones, with random edge weights mixed in."""
    mbr, factor, how_many = BATCH_GRIDS[name]
    grid = Grid(mbr, EPS, factor)
    pairs = [frozenset(p[:2]) for p in grid.adjacent_pairs()]
    xs, ys = degenerate_points(grid)
    rng = random.Random(len(pairs))
    if how_many == "all":
        combos = list(itertools.product([Side.R, Side.S], repeat=len(pairs)))
    else:
        combos = [tuple(rng.choice([Side.R, Side.S]) for _ in pairs) for _ in range(how_many)]
        combos += [tuple([Side.R] * len(pairs)), tuple([Side.S] * len(pairs))]
    for n, combo in enumerate(combos):
        graph = AgreementGraph(grid, dict(zip(pairs, combo)))
        if n % 2:  # every other instance marks under random weights
            for sub in graph.quartets.values():
                for e in sub.edges():
                    e.weight = rng.randrange(1000)
        generate_duplicate_free_graph(graph)
        assert_batch_equals_reference(AdaptiveAssigner(grid, graph), xs, ys, combo)


def test_batch_on_empty_input_and_quartetless_grids():
    grid = Grid(MBR(0, 0, 5, 5), EPS)
    pairs = [frozenset(p[:2]) for p in grid.adjacent_pairs()]
    graph = AgreementGraph(grid, dict.fromkeys(pairs, Side.R))
    generate_duplicate_free_graph(graph)
    empty = np.empty(0)
    for side in Side:
        cells, idxs = AdaptiveAssigner(grid, graph).assign_batch(empty, empty, side)
        assert cells.dtype == idxs.dtype == np.int64 and len(cells) == len(idxs) == 0

    # a single row of cells has adjacent pairs but no quartet; one cell, neither
    for mbr in (MBR(0, 0, 7.5, 2.5), MBR(0, 0, 2.5, 2.5)):
        strip = Grid(mbr, EPS)
        assert strip.ny == 1
        pairs = [frozenset(p[:2]) for p in strip.adjacent_pairs()]
        for types in ([Side.R, Side.S] * len(pairs), [Side.S] * len(pairs)):
            graph = AgreementGraph(strip, dict(zip(pairs, types)))
            generate_duplicate_free_graph(graph)
            xs, ys = degenerate_points(strip)
            assert_batch_equals_reference(AdaptiveAssigner(strip, graph), xs, ys, types)


def test_root_le_follows_python_pow_where_it_differs_from_sqrt():
    """``MBR.mindist_point`` roots with ``** 0.5`` (libm ``pow``), which is
    one ulp off ``np.sqrt`` on ~0.1% of inputs; with ``eps`` between the two
    roots the vectorized comparison must still side with the scalar one."""
    sq = np.random.default_rng(5).uniform(0.0, 4.0, 200_000)
    scalar = np.array([v ** 0.5 for v in sq.tolist()])
    differs = np.nonzero(scalar != np.sqrt(sq))[0]
    assert len(differs) > 0, "libm pow agrees with sqrt here; nothing to guard"
    for i in differs[:50].tolist():
        for eps in (float(scalar[i]), float(np.sqrt(sq[i]))):
            got = _root_le(sq[i - 2 : i + 3].copy(), eps)
            assert got.tolist() == [v ** 0.5 <= eps for v in sq[i - 2 : i + 3].tolist()]
