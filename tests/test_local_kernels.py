"""Unit tests for the per-partition join kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import local
from repro.joins.local import (
    LOCAL_KERNELS,
    grid_hash_join,
    grid_hash_join_batch,
    nested_loop_join,
    plane_sweep_join,
)


def cloud(n, seed):
    rng = np.random.default_rng(seed)
    return (
        np.arange(n, dtype=np.int64),
        rng.uniform(0, 10, n),
        rng.uniform(0, 10, n),
    )


def as_set(rids, sids):
    return set(zip(rids.tolist(), sids.tolist()))


class TestAgreement:
    @pytest.mark.parametrize("eps", [0.2, 0.7, 1.5])
    def test_kernels_agree(self, eps):
        r = cloud(120, 1)
        s = cloud(140, 2)
        reference = None
        for name, kernel in LOCAL_KERNELS.items():
            rid, sid, _c = kernel(*r, *s, eps)
            got = as_set(rid, sid)
            if reference is None:
                reference = got
            assert got == reference, name

    def test_matches_brute_force_semantics(self):
        r_ids = np.array([0, 1])
        r_xs = np.array([0.0, 5.0])
        r_ys = np.array([0.0, 5.0])
        s_ids = np.array([7, 8])
        s_xs = np.array([0.5, 9.0])
        s_ys = np.array([0.0, 9.0])
        rid, sid, cand = nested_loop_join(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, 1.0)
        assert as_set(rid, sid) == {(0, 7)}
        assert cand == 4


class TestEdgeCases:
    @pytest.mark.parametrize("kernel", list(LOCAL_KERNELS.values()))
    def test_empty_inputs(self, kernel):
        e = np.empty(0, dtype=np.int64)
        ef = np.empty(0, dtype=np.float64)
        r = cloud(5, 3)
        rid, sid, cand = kernel(e, ef, ef, *r, 1.0)
        assert len(rid) == 0 and cand == 0
        rid, sid, cand = kernel(*r, e, ef, ef, 1.0)
        assert len(rid) == 0 and cand == 0

    def test_threshold_inclusive(self):
        one = np.array([0], dtype=np.int64)
        for kernel in LOCAL_KERNELS.values():
            rid, sid, _ = kernel(
                one, np.array([0.0]), np.array([0.0]),
                one, np.array([1.0]), np.array([0.0]),
                1.0,
            )
            assert len(rid) == 1, kernel

    def test_duplicate_coordinates(self):
        ids = np.array([0, 1], dtype=np.int64)
        xs = np.array([1.0, 1.0])
        ys = np.array([1.0, 1.0])
        for kernel in LOCAL_KERNELS.values():
            rid, sid, _ = kernel(ids, xs, ys, ids, xs, ys, 0.5)
            assert as_set(rid, sid) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestCandidates:
    def test_plane_sweep_never_more_candidates_than_nested_loop(self):
        r = cloud(100, 4)
        s = cloud(100, 5)
        _, _, c_nl = nested_loop_join(*r, *s, 0.8)
        _, _, c_ps = plane_sweep_join(*r, *s, 0.8)
        assert c_ps <= c_nl

    def test_candidates_at_least_results(self):
        r = cloud(80, 6)
        s = cloud(80, 7)
        for kernel in LOCAL_KERNELS.values():
            rid, _sid, cand = kernel(*r, *s, 1.0)
            assert cand >= len(rid)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 9999),
    n=st.integers(1, 60),
    m=st.integers(1, 60),
    eps=st.floats(0.05, 3.0),
)
def test_property_kernels_equal(seed, n, m, eps):
    r = cloud(n, seed)
    s = cloud(m, seed + 1)
    ref_rid, ref_sid, _ = nested_loop_join(*r, *s, eps)
    ref = as_set(ref_rid, ref_sid)
    for name, kernel in LOCAL_KERNELS.items():
        rid, sid, _ = kernel(*r, *s, eps)
        assert as_set(rid, sid) == ref, name


# ----------------------------------------------------------------------
# degenerate eps: every kernel against the quadratic reference
# ----------------------------------------------------------------------
class TestDegenerateEps:
    R = (np.arange(3, dtype=np.int64), np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("name", list(LOCAL_KERNELS))
    @pytest.mark.parametrize("eps", [0.0, 1.5, 40.0, np.inf])
    def test_matches_nested_loop(self, name, eps):
        """eps = 0 (coincident points only), eps >= the extent, eps = inf."""
        for r, s in ((self.R, self.R), (cloud(40, 8), cloud(50, 9))):
            ref_r, ref_s, _ = nested_loop_join(*r, *s, eps)
            rid, sid, cand = LOCAL_KERNELS[name](*r, *s, eps)
            assert sorted(zip(rid.tolist(), sid.tolist())) == sorted(
                zip(ref_r.tolist(), ref_s.tolist())
            )
            assert cand >= len(rid)

    def test_eps_zero_reports_the_coincident_pairs(self):
        rid, sid, _ = grid_hash_join(*self.R, *self.R, 0.0)
        assert sorted(zip(rid.tolist(), sid.tolist())) == [
            (0, 0), (1, 1), (1, 2), (2, 1), (2, 2)
        ]


# ----------------------------------------------------------------------
# grid_hash window logic on the inputs nobody generates on purpose
# ----------------------------------------------------------------------
def _check_cells(cells, eps, origins, shift=0.0):
    """Batch == one cell at a time == nested loop, duplicate-free.

    ``cells`` is a list of ``(r_xs, r_ys, s_xs, s_ys)``; ``shift``
    translates every coordinate (and origin) to probe the window guards
    at large coordinate magnitudes.
    """
    cells = [tuple(np.asarray(c, dtype=np.float64) + shift for c in cell) for cell in cells]
    if origins is not None:
        origins = np.asarray(origins, dtype=np.float64) + shift

    def side(xi, yi):
        offsets = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum([len(cell[xi]) for cell in cells], out=offsets[1:])
        return (
            np.arange(offsets[-1], dtype=np.int64),
            np.concatenate([cell[xi] for cell in cells]),
            np.concatenate([cell[yi] for cell in cells]),
            offsets,
        )

    r_ids, r_xs, r_ys, r_off = side(0, 1)
    s_ids, s_xs, s_ys, s_off = side(2, 3)
    out = grid_hash_join_batch(
        r_ids, r_xs, r_ys, r_off, s_ids, s_xs, s_ys, s_off, eps, origins
    )
    assert out is not None
    pair_r, pair_s, candidates = out
    for i in range(len(cells)):
        r = (r_ids[r_off[i]:r_off[i + 1]], r_xs[r_off[i]:r_off[i + 1]], r_ys[r_off[i]:r_off[i + 1]])
        s = (s_ids[s_off[i]:s_off[i + 1]], s_xs[s_off[i]:s_off[i + 1]], s_ys[s_off[i]:s_off[i + 1]])
        origin = None if origins is None else tuple(origins[i])
        one_r, one_s, one_c = grid_hash_join(*r, *s, eps, origin=origin)
        np.testing.assert_array_equal(pair_r[i], one_r)
        np.testing.assert_array_equal(pair_s[i], one_s)
        assert int(candidates[i]) == one_c
        got = list(zip(pair_r[i].tolist(), pair_s[i].tolist()))
        assert len(set(got)) == len(got), "duplicate pair"
        ref_r, ref_s, _ = nested_loop_join(*r, *s, eps)
        assert set(got) == as_set(ref_r, ref_s), f"cell {i}"
        assert one_c >= len(got)


SHIFTS = [0.0, 1e6, -1e6]


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("with_origins", [True, False])
class TestGridHashWindows:
    EPS = 0.25

    def origins(self, n, with_origins):
        return [(0.0, 0.0)] * n if with_origins else None

    def test_band_boundaries_and_exact_vertical_gaps(self, shift, with_origins):
        eps = self.EPS
        rows = np.arange(0, 9)
        # S exactly on multiples of eps and on the kernel's band boundaries
        on_eps = rows * eps
        on_band = rows * (eps * local._BAND_HEIGHT)
        s_ys = np.concatenate([on_eps, on_band, np.nextafter(on_band, -np.inf)])
        s_xs = np.full(len(s_ys), 1.0)
        # R: on boundaries too, plus points with an S exactly eps above/below
        r_ys = np.concatenate([on_eps, on_band, [0.6, 0.6 + eps, 0.6 - eps]])
        r_xs = np.concatenate([np.full(len(r_ys) - 3, 1.0 + eps / 3), [1.0] * 3])
        s_xs = np.concatenate([s_xs, [1.0]])
        s_ys = np.concatenate([s_ys, [0.6]])
        _check_cells([(r_xs, r_ys, s_xs, s_ys)], eps, self.origins(1, with_origins), shift)

    def test_distance_exactly_eps_and_one_ulp_either_side(self, shift, with_origins):
        eps = self.EPS
        up, down = np.nextafter(eps, np.inf), np.nextafter(eps, 0.0)
        offsets = []
        for d in (down, eps, up):
            offsets += [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d),
                        (0.6 * d, 0.8 * d), (-0.8 * d, 0.6 * d), (0.8 * d, -0.6 * d)]
        cells = []
        for cx, cy in ((1.0, 1.0), (1.0 + eps / 2, 1.0 + 3 * eps), (0.3, 0.05)):
            s_xs = np.array([cx + dx for dx, _ in offsets])
            s_ys = np.array([cy + dy for _, dy in offsets])
            cells.append(([cx], [cy], s_xs, s_ys))
            cells.append((s_xs, s_ys, [cx], [cy]))  # and with the roles swapped
        _check_cells(cells, eps, self.origins(len(cells), with_origins), shift)

    def test_all_points_in_one_band(self, shift, with_origins):
        rng = np.random.default_rng(11)
        cell = (
            rng.uniform(0, 4, 200), rng.uniform(0.01, 0.02, 200),
            rng.uniform(0, 4, 220), rng.uniform(0.01, 0.02, 220),
        )
        _check_cells([cell], self.EPS, self.origins(1, with_origins), shift)

    def test_duplicates(self, shift, with_origins):
        rng = np.random.default_rng(12)
        xs = np.repeat(rng.uniform(0, 2, 15), 4)
        ys = np.repeat(rng.uniform(0, 2, 15), 4)
        _check_cells([(xs, ys, xs[::-1], ys[::-1])], self.EPS, self.origins(1, with_origins), shift)

    def test_empty_sides_inside_a_batch(self, shift, with_origins):
        rng = np.random.default_rng(13)
        e = np.empty(0)
        full = lambda n: rng.uniform(0, 2, n)
        cells = [
            (e, e, full(5), full(5)),
            (full(30), full(30), full(40), full(40)),
            (full(7), full(7), e, e),
            (e, e, e, e),
            (full(25), full(25), full(20), full(20)),
            (e, e, full(3), full(3)),
        ]
        _check_cells(cells, self.EPS, self.origins(len(cells), with_origins), shift)

    def test_replicas_outside_the_cell_on_every_side(self, shift, with_origins):
        """A 1 x 1 cell anchored at (0, 0) holding replicas from a
        ``eps``-wide rim all around it (negative band and x keys)."""
        rng = np.random.default_rng(14)
        eps = self.EPS
        cells = [
            tuple(rng.uniform(-eps, 1 + eps, n) for n in (150, 150, 160, 160))
            for _ in range(3)
        ]
        # corners and rim midpoints exactly eps outside
        rim = np.array([-eps, 0.5, 1 + eps])
        gx, gy = (g.ravel() for g in np.meshgrid(rim, rim))
        cells.append((gx, gy, gx + eps / 2, gy))
        _check_cells(cells, eps, self.origins(len(cells), with_origins), shift)


def test_grid_hash_declines_what_it_cannot_key():
    """Non-positive / non-finite eps and extents beyond the key guard
    decline in the batch kernel; the one-cell kernel still answers."""
    r = cloud(20, 15)
    s = cloud(20, 16)
    off = np.array([0, 20], dtype=np.int64)
    for eps in (0.0, np.inf, 1e-9):
        assert grid_hash_join_batch(*r, off, *s, off, eps, None) is None
        rid, sid, _ = grid_hash_join(*r, *s, eps)
        ref_r, ref_s, _ = nested_loop_join(*r, *s, eps)
        assert as_set(rid, sid) == as_set(ref_r, ref_s)
