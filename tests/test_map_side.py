"""The map side's bookkeeping against its textbook references.

``stable_argsort`` (the packed-key sort under the shuffle and the
``grid_hash`` kernel) against ``np.argsort(kind="stable")``, and
``ShuffleStage``'s layout and per-destination volumes against the
``argsort`` + ``np.unique`` + per-record accounting they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import JoinMetrics
from repro.engine.partitioner import ExplicitPartitioner, HashPartitioner
from repro.engine.sorting import run_starts, stable_argsort
from repro.geometry.point import Side
from repro.joins.distance_join import JoinConfig
from repro.joins.pipeline import ShuffleStage, SideRecords, make_context

#: with this many keys, a bound above 2**62 >> bits forces the fall-back
FALLBACK_BOUND = 1 << 62


@settings(max_examples=200, deadline=None)
@given(
    keys=st.one_of(
        st.lists(st.integers(0, 5), max_size=60),  # duplicates, empty, one, all equal
        st.lists(st.integers(0, 2**40), max_size=60),
        st.integers(0, 9).map(lambda k: [k] * 17),
    ),
    slack=st.integers(1, 2**20),
)
def test_stable_argsort_is_the_stable_argsort(keys, slack):
    keys = np.array(keys, dtype=np.int64)
    expected = np.argsort(keys, kind="stable")
    bound = int(keys.max(initial=0)) + slack
    for branch_bound in (bound, FALLBACK_BOUND):
        order, sorted_keys = stable_argsort(keys, branch_bound)
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_keys, keys[expected])
    starts = run_starts(sorted_keys)
    uniq, first = np.unique(sorted_keys, return_index=True)
    assert np.array_equal(starts, first) and np.array_equal(sorted_keys[starts], uniq)


def test_stable_argsort_packs_up_to_62_bits_and_no_further(monkeypatch):
    """The guard sits exactly where ``key << bits | position`` stops fitting."""
    top = (1 << 59) - 1  # 5 positions take 3 bits: the largest key that packs
    keys = np.array([top, 0, top, 7, 0], dtype=np.int64)
    expected = np.argsort(keys, kind="stable")
    fell_back = []
    argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda *a, **kw: fell_back.append(True) or argsort(*a, **kw)
    )
    for bound, falls_back in ((top + 1, False), (top + 2, True)):
        order, sorted_keys = stable_argsort(keys, bound)
        assert np.array_equal(order, expected)
        assert np.array_equal(sorted_keys, keys[expected])
        assert bool(fell_back) is falls_back


def run_shuffle(sides, partitioner, workers):
    """``ShuffleStage`` alone over ``{side: (cells, idxs, count, record_bytes)}``."""
    cfg = JoinConfig(eps=0.1, num_workers=workers)
    ctx = make_context(cfg, num_workers=workers, metrics=JoinMetrics())
    ctx.shuffle.enable_matrix(workers)
    ctx.data["records"] = [SideRecords(side, *cols) for side, cols in sides.items()]
    ctx.data["partitioner"] = partitioner
    ShuffleStage().run(ctx)
    return ctx


def random_side(rng, n, records, num_cells, sized):
    cells = rng.integers(0, num_cells, records)
    idxs = rng.integers(0, max(n, 1), records)
    sizes = rng.integers(8, 4000, records) if sized else 32
    return cells, idxs, n, sizes


SHAPES = {
    "random": lambda rng, sized: {
        Side.R: random_side(rng, 300, 700, 50, sized),
        Side.S: random_side(rng, 200, 450, 50, sized),
    },
    "empty side": lambda rng, sized: {
        Side.R: random_side(rng, 300, 700, 50, sized),
        Side.S: random_side(rng, 0, 0, 50, sized),
    },
    "one occupied cell": lambda rng, sized: {
        Side.R: random_side(rng, 1, 1, 50, sized),
        Side.S: random_side(rng, 200, 450, 50, sized),
    },
    "all records in one cell": lambda rng, sized: {
        Side.R: (np.full(400, 7), rng.integers(0, 250, 400), 250,
                 rng.integers(8, 4000, 400) if sized else 32),
        Side.S: (np.full(90, 7), rng.integers(0, 90, 90), 90,
                 rng.integers(8, 4000, 90) if sized else 32),
    },
}


@pytest.mark.parametrize("sized", [False, True], ids=["scalar", "per-record"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "partitioner",
    [HashPartitioner(12), ExplicitPartitioner({3: 1, 7: 2, 20: 0, 41: 3}, 4)],
    ids=["hash", "explicit"],
)
def test_shuffle_layout_and_volumes_match_the_reference(shape, sized, partitioner):
    W = 4
    sides = SHAPES[shape](np.random.default_rng(11), sized)
    ctx = run_shuffle(sides, partitioner, W)

    read_records = np.zeros(W, dtype=np.int64)
    read_bytes = np.zeros(W, dtype=np.int64)
    matrix = np.zeros((W, W), dtype=np.int64)
    for side, (cells, idxs, n, sizes) in sides.items():
        order = np.argsort(cells, kind="stable")
        uniq, starts = np.unique(cells[order], return_index=True)
        got = ctx.data["shuffle_layout"][side]
        assert np.array_equal(got[0], uniq)
        assert np.array_equal(got[1], np.append(starts, len(cells)))
        assert np.array_equal(got[2], idxs[order])
        # the per-record accounting, one record at a time
        for i in range(len(cells)):
            src = min(int(idxs[i]) * W // max(n, 1), W - 1)
            dst = partitioner.of(int(cells[i])) % W
            size = int(sizes[i]) if sized else sizes
            read_records[dst] += 1
            read_bytes[dst] += size
            matrix[src, dst] += size
    assert np.array_equal(ctx.data["read_records_w"], read_records)
    assert np.array_equal(ctx.data["read_bytes_w"], read_bytes)
    assert np.array_equal(ctx.shuffle.matrix, matrix)
    assert np.array_equal(
        ctx.data["worker_heap"], read_bytes * ctx.cost_model.heap_expansion
    )
    m = ctx.metrics
    assert (m.shuffle_records, m.shuffle_bytes) == (read_records.sum(), matrix.sum())
    assert (m.remote_bytes, m.remote_records) == (
        matrix.sum() - matrix.trace(), ctx.shuffle.remote_records
    )
    joinable = np.intersect1d(sides[Side.R][0], sides[Side.S][0])
    assert np.array_equal(ctx.data["joinable_cells"], joinable)
    assert ctx.data["cell_workers"][joinable].tolist() == [
        partitioner.of(int(c)) % W for c in joinable
    ]
