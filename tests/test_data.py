"""Unit tests for point sets, generators, datasets, sampling and IO."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data.datasets import TUPLE_SIZE_FACTORS, load_dataset
from repro.data.generators import UNIT_MBR, gaussian_clusters, real_like, uniform
from repro.data.io import read_points_text, write_points_text
from repro.data.pointset import PointSet
from repro.data.sampling import bernoulli_sample


class TestPointSet:
    def test_basic_construction(self):
        ps = PointSet([0.0, 1.0], [2.0, 3.0], name="t")
        assert len(ps) == 2
        assert ps.ids.tolist() == [0, 1]
        assert ps.record_bytes == 24

    def test_payload(self):
        ps = PointSet([0.0], [0.0], payload_bytes=100)
        assert ps.record_bytes == 124
        assert ps.with_payload(5).record_bytes == 29

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            PointSet([0.0, 1.0], [0.0])
        with pytest.raises(ValueError):
            PointSet([0.0], [0.0], ids=[1, 2])
        with pytest.raises(ValueError):
            PointSet([0.0], [0.0], payload_bytes=-1)

    def test_mbr(self):
        ps = PointSet([1.0, 4.0], [2.0, -1.0])
        m = ps.mbr()
        assert (m.xmin, m.ymin, m.xmax, m.ymax) == (1.0, -1.0, 4.0, 2.0)

    def test_mbr_empty_raises(self):
        with pytest.raises(ValueError):
            PointSet(np.empty(0), np.empty(0)).mbr()

    def test_subset(self):
        ps = PointSet([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        sub = ps.subset(np.array([True, False, True]))
        assert len(sub) == 2
        assert sub.ids.tolist() == [0, 2]

    def test_tile_scales_and_stays_in_mbr(self):
        ps = gaussian_clusters(500, seed=1, name="base")
        tiled = ps.tile(4)
        assert len(tiled) == 2000
        box = ps.mbr()
        assert tiled.mbr().xmin >= box.xmin - 1e9
        assert np.unique(tiled.ids).size == 2000

    def test_tile_is_the_same_in_every_process(self):
        """The jitter's seed does not depend on the per-process str hash
        salt: two interpreters with different ``PYTHONHASHSEED`` tile
        alike."""
        code = (
            "from repro.data.datasets import load_dataset\n"
            "ps = load_dataset('S1', base_n=300, size_factor=3)\n"
            "print(ps.xs.tobytes().hex(), ps.ys.tobytes().hex())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        out = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                check=True, timeout=120,
            ).stdout
            for seed in ("1", "2")
        ]
        assert out[0] and out[0] == out[1]

    def test_tile_identity(self):
        ps = uniform(100, seed=2)
        assert ps.tile(1) is ps
        with pytest.raises(ValueError):
            ps.tile(0)

    def test_iter_triples(self):
        ps = PointSet([0.5], [0.25])
        assert list(ps.iter_triples()) == [(0, 0.5, 0.25)]


class TestGenerators:
    def test_deterministic(self):
        a = gaussian_clusters(200, seed=9)
        b = gaussian_clusters(200, seed=9)
        assert np.array_equal(a.xs, b.xs)
        assert not np.array_equal(a.xs, gaussian_clusters(200, seed=10).xs)

    def test_sizes(self):
        assert len(uniform(123, seed=1)) == 123
        assert len(gaussian_clusters(77, seed=1)) == 77
        assert len(real_like(456, seed=1)) == 456

    def test_clipped_to_mbr(self):
        for gen in (uniform, gaussian_clusters, real_like):
            ps = gen(500, seed=3)
            assert ps.xs.min() >= UNIT_MBR.xmin and ps.xs.max() <= UNIT_MBR.xmax
            assert ps.ys.min() >= UNIT_MBR.ymin and ps.ys.max() <= UNIT_MBR.ymax

    def test_gaussian_is_clustered(self):
        """Clustered data occupies far fewer grid cells than uniform."""
        clustered = gaussian_clusters(3000, seed=4)
        flat = uniform(3000, seed=4)

        def occupied(ps):
            cx = (ps.xs * 40).astype(int)
            cy = (ps.ys * 40).astype(int)
            return len(set(zip(cx.tolist(), cy.tolist())))

        assert occupied(clustered) < 0.5 * occupied(flat)

    def test_real_like_heavy_tail(self):
        """The largest cluster dominates: top grid cell count is much larger
        than the median occupied cell count."""
        ps = real_like(5000, seed=5)
        cx = (ps.xs * 20).astype(int)
        cy = (ps.ys * 20).astype(int)
        counts = {}
        for key in zip(cx.tolist(), cy.tolist()):
            counts[key] = counts.get(key, 0) + 1
        values = sorted(counts.values())
        assert values[-1] > 10 * values[len(values) // 2]


class TestDatasets:
    def test_relative_cardinalities(self):
        sets = {c: load_dataset(c, base_n=1000) for c in ("R1", "R2", "S1", "S2")}
        assert len(sets["S1"]) == 1000
        assert len(sets["S2"]) == 1000
        assert len(sets["R1"]) == 941
        assert len(sets["R2"]) == 427

    def test_distinct_distributions(self):
        sets = {c: load_dataset(c, base_n=500) for c in ("S1", "S2")}
        assert not np.array_equal(sets["S1"].xs, sets["S2"].xs)

    def test_size_factor(self):
        assert len(load_dataset("S1", base_n=300, size_factor=4)) == 1200

    def test_payload_bytes_forwarded(self):
        assert load_dataset("S1", base_n=100, payload_bytes=64).record_bytes == 88

    def test_unknown_codename(self):
        with pytest.raises(ValueError):
            load_dataset("X9")

    def test_tuple_size_factors_monotone(self):
        values = [TUPLE_SIZE_FACTORS[f] for f in ("f0", "f1", "f2", "f3", "f4")]
        assert values == sorted(values)
        assert values[0] == 0


class TestSampling:
    def test_rate_bounds(self):
        ps = uniform(100, seed=1)
        with pytest.raises(ValueError):
            bernoulli_sample(ps, 0.0)
        with pytest.raises(ValueError):
            bernoulli_sample(ps, 1.5)

    def test_full_rate_identity(self):
        ps = uniform(100, seed=1)
        assert bernoulli_sample(ps, 1.0) is ps

    def test_sample_size_near_expectation(self):
        ps = uniform(20_000, seed=2)
        sample = bernoulli_sample(ps, 0.03, seed=5)
        assert 450 <= len(sample) <= 750

    def test_deterministic(self):
        ps = uniform(1000, seed=3)
        a = bernoulli_sample(ps, 0.1, seed=7)
        b = bernoulli_sample(ps, 0.1, seed=7)
        assert np.array_equal(a.ids, b.ids)


class TestIO:
    def test_round_trip(self, tmp_path):
        ps = gaussian_clusters(50, seed=6, name="io")
        path = tmp_path / "pts.txt"
        write_points_text(ps, str(path))
        back = read_points_text(str(path), name="io")
        assert np.array_equal(back.ids, ps.ids)
        assert np.allclose(back.xs, ps.xs)
        assert np.allclose(back.ys, ps.ys)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("1,0.5,0.5\n\n2,0.25,0.75\n")
        assert len(read_points_text(str(path))) == 2

    def test_round_trip_is_exact(self, tmp_path):
        """Every float64 and int64 survives write -> read bit for bit."""
        xs = np.array([5e-324, 2.2250738585072014e-308, -0.0, 0.1 + 0.2,
                       0.12345678901234566, 1.7976931348623157e308, 1e-5, 3.0])
        ys = xs[::-1].copy()
        ids = np.array([0, -7, 2**31, 2**31 + 1, 2**40, 2**63 - 1, 5, 5])
        path = str(tmp_path / "pts.txt")
        write_points_text(PointSet(xs, ys, ids), path)
        back = read_points_text(path, payload_bytes=8, name="exact")
        assert back.ids.dtype == np.int64 and np.array_equal(back.ids, ids)
        # compared as bit patterns: -0.0 == 0.0 would pass an array_equal
        assert np.array_equal(back.xs.view(np.int64), xs.view(np.int64))
        assert np.array_equal(back.ys.view(np.int64), ys.view(np.int64))
        assert (back.payload_bytes, back.name) == (8, "exact")

    @pytest.mark.parametrize("text", ["", "\n\n", "  \n"])
    def test_file_without_points(self, tmp_path, recwarn, text):
        path = tmp_path / "pts.txt"
        path.write_text(text)
        back = read_points_text(str(path))
        assert len(back) == 0 and back.ids.dtype == np.int64
        assert not recwarn.list

    def test_single_line_without_newline(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("7,0.5,0.25")
        back = read_points_text(str(path))
        assert (back.ids.tolist(), back.xs.tolist(), back.ys.tolist()) == (
            [7], [0.5], [0.25]
        )

    @pytest.mark.parametrize(
        "line", ["1,0.5", "1,0.5,0.5,0.5", "x,0.5,0.5", "1.5,0.5,0.5",
                 "1,zero,0.5", "# 1,0.5,0.5", "1,nan,0.5"],
    )
    def test_malformed_line_raises(self, tmp_path, line):
        path = tmp_path / "pts.txt"
        path.write_text(f"1,0.5,0.5\n{line}\n")
        with pytest.raises(ValueError):
            read_points_text(str(path))
