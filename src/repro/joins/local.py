"""Local (per-partition) epsilon-distance join kernels.

After the shuffle, each grid cell holds the R and S points assigned to it;
a local kernel finds all pairs within ``eps`` and reports how many
*candidate* pairs it examined -- the quantity driving the modelled join
cost.  Three kernels are provided:

* :func:`nested_loop_join` -- the quadratic reference;
* :func:`plane_sweep_join` -- sort by x, compare only within an x-window
  of ``eps`` (the classic PBSM local algorithm, and the kernel the driver
  goldens pin);
* :func:`grid_hash_join` -- bucket the *build* side into horizontal bands
  of height ``eps`` sorted by x, and give each point of the *probe* side
  an x-window in its own band and the two adjacent ones, narrowed by its
  vertical gap to the band: the candidate set is close to the
  ``eps``-disc.  Each cell builds on whichever input has more records in
  it and probes with the other (:func:`repro.engine.kernels.s_probes`),
  because a probe costs about ten times what a built record does.  One
  implementation in two steps -- :func:`grid_hash_probe` windows all
  cells of a worker task in one pass, :func:`grid_hash_expand` writes the
  hits into columns the caller supplies, or only counts them; the
  per-cell kernel is the one-cell case.  It is ``JoinConfig``'s default.

All kernels take parallel arrays and return ``(r_ids, s_ids, candidates)``
with one entry per result pair.  The keyword-only ``origin`` argument
anchors :func:`grid_hash_join`'s bands and x-keys (the other kernels
ignore it); without it the anchor is the minimum coordinate present.
Passing the enclosing grid cell's MBR origin makes band boundaries -- and
hence candidate counts -- independent of the data actually present in the
cell.  The pair *set* never depends on the anchor or on which side
probes.  The candidate count is not symmetric in the two sides: it is
what a cell's probing side finds in its built side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.kernels import s_probes
from repro.engine.sorting import run_starts, stable_argsort

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_XY = np.empty(0, dtype=np.complex128)


def _expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate (i, j) for every i and every j in [lo[i], hi[i]).

    Returns parallel arrays ``(anchor_index, window_index)``.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    anchors = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    # window positions: for each anchor a run [lo_i, hi_i)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    windows = np.repeat(lo, counts) + offsets
    return anchors, windows


def nested_loop_join(
    r_ids: np.ndarray,
    r_xs: np.ndarray,
    r_ys: np.ndarray,
    s_ids: np.ndarray,
    s_xs: np.ndarray,
    s_ys: np.ndarray,
    eps: float,
    *,
    origin: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """All-pairs comparison; candidates = |R| * |S|."""
    if len(r_ids) == 0 or len(s_ids) == 0:
        return _EMPTY, _EMPTY, 0
    dx = r_xs[:, None] - s_xs[None, :]
    dy = r_ys[:, None] - s_ys[None, :]
    mask = dx * dx + dy * dy <= eps * eps
    ri, si = np.nonzero(mask)
    return r_ids[ri], s_ids[si], len(r_ids) * len(s_ids)


def plane_sweep_join(
    r_ids: np.ndarray,
    r_xs: np.ndarray,
    r_ys: np.ndarray,
    s_ids: np.ndarray,
    s_xs: np.ndarray,
    s_ys: np.ndarray,
    eps: float,
    *,
    origin: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sweep along x: each R point is compared to S points with
    ``|r.x - s.x| <= eps``; candidates = total window size."""
    if len(r_ids) == 0 or len(s_ids) == 0:
        return _EMPTY, _EMPTY, 0
    order = np.argsort(s_xs, kind="stable")
    sx = s_xs[order]
    sy = s_ys[order]
    sid = s_ids[order]
    lo = np.searchsorted(sx, r_xs - eps, side="left")
    hi = np.searchsorted(sx, r_xs + eps, side="right")
    anchors, windows = _expand_ranges(lo, hi)
    candidates = len(anchors)
    if candidates == 0:
        return _EMPTY, _EMPTY, 0
    dx = r_xs[anchors] - sx[windows]
    dy = r_ys[anchors] - sy[windows]
    mask = dx * dx + dy * dy <= eps * eps
    return r_ids[anchors[mask]], sid[windows[mask]], candidates


def grid_hash_join(
    r_ids: np.ndarray,
    r_xs: np.ndarray,
    r_ys: np.ndarray,
    s_ids: np.ndarray,
    s_xs: np.ndarray,
    s_ys: np.ndarray,
    eps: float,
    *,
    origin: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Band the larger side by rows of height ``eps``; probe each point of
    the other side's three rows with sorted-x windows -- the one-cell case
    of :func:`grid_hash_probe` + :func:`grid_hash_expand`.

    S probes when it has fewer points than R, R otherwise; the pairs come
    back as ``(r, s)`` either way, probe-major.

    An ``eps`` the banding cannot key (zero, infinite, or so small
    against the extent that the keys would overflow) is answered by
    :func:`plane_sweep_join`, whose float window needs no keys.
    """
    probe = _one_cell_probe(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, eps, origin)
    if probe is None:
        return plane_sweep_join(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, eps)
    out_r, out_s, _ = _expand_owned(probe)
    return out_r, out_s, int(probe.candidates[0])


def grid_hash_count(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, eps: float) -> int:
    """``len(grid_hash_join(...)[0])`` with no pair written: the same
    probe, the count-only :func:`grid_hash_expand`, and
    :func:`plane_sweep_join` where the probe declines."""
    probe = _one_cell_probe(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, eps, None)
    if probe is None:
        return len(plane_sweep_join(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, eps)[0])
    return grid_hash_expand(probe, None, None)[0]


def _one_cell_probe(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, eps, origin):
    """:func:`grid_hash_probe` of the two sides as one cell."""
    origins = None if origin is None else np.array([origin], dtype=np.float64)
    return grid_hash_probe(
        r_ids, r_xs, r_ys, np.array([0, len(r_ids)], dtype=np.int64),
        s_ids, s_xs, s_ys, np.array([0, len(s_ids)], dtype=np.int64),
        eps, origins,
    )


def _segment_min(vals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment minimum; empty segments yield ``+inf``."""
    num = len(offsets) - 1
    out = np.full(num, np.inf)
    counts = np.diff(offsets)
    nonempty = counts > 0
    if nonempty.any():
        # reduceat from each non-empty start runs to the next non-empty
        # start; empty segments in between contribute zero elements, so
        # the reduction window covers exactly the segment
        out[nonempty] = np.minimum.reduceat(vals, offsets[:-1][nonempty])
    return out


#: x-keys per ``eps``: a window is padded by one key on either side, so a
#: finer quantum only trims the (already ~0.1%) pad, a coarser one wastes
#: distance tests.
_QUANTA_PER_EPS = 1 << 12
#: Bands are this much taller than ``eps`` so that two points at most
#: ``eps`` (plus rounding) apart can never be two bands apart.
_BAND_HEIGHT = 1.0 + 2.0**-16
#: Largest ``|coordinate - origin| / eps`` the kernel keys; beyond it the
#: rounding of ``coordinate - origin`` could exceed the one-key pad.
_MAX_EXTENT = 2.0**20
#: Candidate pairs expanded per pass over the probes.  Small enough that
#: every per-candidate temporary stays cache-resident and is recycled by
#: the allocator instead of being mapped (and page-faulted) afresh.
_BLOCK_CANDIDATES = 1 << 15


@dataclass(frozen=True, slots=True)
class GridHashProbe:
    """What :func:`grid_hash_probe` found: every probe point's three
    windows into the sorted build side, and the candidate counts they add
    up to.

    Holds no output; :func:`grid_hash_expand` turns it into result pairs.
    """

    #: Candidate pairs over all cells -- the most hits an expand can write.
    total: int
    #: Candidate pairs per cell.
    candidates: np.ndarray
    #: Per cell: does S probe?
    swapped: np.ndarray
    #: Probe points before cell i (len cells + 1).
    offsets: np.ndarray
    probe_ids: np.ndarray
    probe_xy: np.ndarray  # complex128: x + iy
    build_ids: np.ndarray  # build ids and coordinates in (cell, band, x) order
    build_xy: np.ndarray
    first: np.ndarray  # per window: its start minus its candidate offset
    counts: np.ndarray  # per window: its length
    point_before: np.ndarray  # candidates before probe point i (len points + 1)
    cell_before: np.ndarray  # candidates before cell i (len cells + 1)
    eps_sq: float


def _role_side(swapped, unswapped_side, swapped_side):
    """One role's points, cell by cell: ``swapped_side``'s where
    ``swapped``, ``unswapped_side``'s elsewhere.

    Each side is ``((ids, xs, ys), offsets)``; so is the result.  A run of
    cells with one role is one slice of one side, so a task in plan order
    -- every R-probe cell before every S-probe one -- is at most two
    slices, and a task of one role is a view, not a copy.
    """
    (a_cols, a_off), (b_cols, b_off) = unswapped_side, swapped_side
    counts = np.where(swapped, b_off[1:] - b_off[:-1], a_off[1:] - a_off[:-1])
    offsets = np.zeros(len(swapped) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    edges = [0, *(np.flatnonzero(swapped[1:] != swapped[:-1]) + 1).tolist(), len(swapped)]
    runs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        cols, off = (b_cols, b_off) if swapped[lo] else (a_cols, a_off)
        runs.append([col[off[lo] : off[hi]] for col in cols])
    if len(runs) == 1:
        return runs[0], offsets
    return [np.concatenate(parts) for parts in zip(*runs)], offsets


def grid_hash_probe(
    r_ids: np.ndarray,
    r_xs: np.ndarray,
    r_ys: np.ndarray,
    r_offsets: np.ndarray,
    s_ids: np.ndarray,
    s_xs: np.ndarray,
    s_ys: np.ndarray,
    s_offsets: np.ndarray,
    eps: float,
    origins: np.ndarray | None,
) -> GridHashProbe | None:
    """Key, sort and window all cells of one worker task; write no pairs.

    *Roles.*  In each cell one input is *built* and the other *probes*
    it: S probes where ``|R| > |S|``, R otherwise, ties included
    (:func:`~repro.engine.kernels.s_probes`).  A probe point costs about
    ten times a built one, so the smaller side probes.  A run of cells
    with one role is one slice of each input: a task in plan order --
    R-probe cells, then S-probe cells
    (:func:`~repro.engine.executor.build_execution_plan`) -- takes two
    slices a side, and a task cut another way is gathered run by run.

    Relative to its cell's origin ``(x0, y0)`` a point has ``u = x - x0``
    and ``v = y - y0``.  The build side is bucketed into horizontal
    *bands* of height ``h = eps * (1 + 2^-16)`` and sorted once by the
    integer key ::

        (cell * bands + floor(v / h)) * quanta + floor(u / q),   q = eps / 2^12

    i.e. by ``(cell, band, x)``.  A probe point probes three bands: its
    own with the x-window ``u +- eps`` and the two neighbours with ``u +-
    sqrt(eps^2 - g^2)``, ``g`` being its vertical gap to that band.  A
    window is the key range ``floor((u - w) / q) - 1 .. floor((u + w) /
    q) + 1`` inside the band's key block, found by two binary searches.
    Expected candidate area: ``(2 + pi) eps^2`` against the ``pi eps^2``
    disc.  Every candidate later takes the exact float64 test ``dx*dx +
    dy*dy <= eps*eps`` on the original coordinates, ``d`` = probe point
    minus build point (:func:`grid_hash_expand`).  ``fl(a - b) = -fl(b -
    a)``, so the squares -- and the test's answer -- do not depend on
    which side probes.

    *The windows are a superset of the accepted pairs.*  If the float
    test accepts a probe point ``p`` and a build point ``b`` then ``|x_p -
    x_b|`` and ``|y_p - y_b|`` are at most ``eps (1 + 2^-50)``.  ``u``
    and ``v`` are single float subtractions, so ``u_p - u_b`` and ``v_p -
    v_b`` reproduce those differences to within ``2^-52 * extent``, and
    extents above ``2^20 eps`` decline -- every rounding term below is
    under ``2^-30 eps``.  (i) ``|v_p - v_b| / h < 1``, so ``b`` sits in
    ``p``'s band or an adjacent one.  (ii) In an adjacent band ``|y_p -
    y_b| >= g - 2^-30 eps``, hence ``(x_p - x_b)^2 <= eps^2 - g^2 +
    2^-28 eps^2`` and ``|u_p - u_b| <= w + 2^-14 eps``: less than the
    quantum, which is what the one-key pad absorbs.  (iii) Build keys lie
    strictly inside their cell's and band's key block and probes are
    clipped to the block, so no window reaches another band's or cell's
    points.

    Probes are laid out probe-major (``point x band``), so candidates --
    and the hits among them -- are grouped by cell, in input order of the
    probing side: R-major where R probes, S-major where S probes.  What a
    cell contributes is exactly what the kernel finds for that segment
    alone -- same role, same pairs, same order, same candidate count: a
    role follows the cell's own counts, keys are relative to the cell's
    origin, the global shifts below are monotone, and the stable sort
    keeps equal keys in input order.

    Returns ``None`` (decline; the caller falls back to the per-cell
    loop, the one-cell kernel to :func:`plane_sweep_join`) when ``eps``
    is not positive and finite, the extent bound above is exceeded, or
    the keys would overflow int64.
    """
    num_cells = len(r_offsets) - 1
    swapped = s_probes(r_offsets[1:] - r_offsets[:-1], s_offsets[1:] - s_offsets[:-1])
    probe_ids = _EMPTY
    if num_cells and len(r_ids) and len(s_ids):
        r_side = ((r_ids, r_xs, r_ys), r_offsets)
        s_side = ((s_ids, s_xs, s_ys), s_offsets)
        (probe_ids, p_xs, p_ys), p_offsets = _role_side(swapped, r_side, s_side)
        (build_ids, b_xs, b_ys), b_offsets = _role_side(swapped, s_side, r_side)
    # a cell probes with its smaller side: no probe point at all means
    # every cell has an empty side
    if len(probe_ids) == 0:
        zeros = np.zeros(num_cells + 1, dtype=np.int64)
        return GridHashProbe(
            0, zeros[1:], swapped, zeros, _EMPTY, _EMPTY_XY, _EMPTY, _EMPTY_XY,
            _EMPTY, _EMPTY, zeros[:1], zeros, 0.0,
        )
    quantum = eps / _QUANTA_PER_EPS
    if not (quantum > 0.0 and np.isfinite(eps)):
        return None

    if origins is not None:
        x0 = np.ascontiguousarray(origins[:, 0], dtype=np.float64)
        y0 = np.ascontiguousarray(origins[:, 1], dtype=np.float64)
    else:
        # per-cell data minima; a cell with both sides empty has no
        # points, so its placeholder origin is inert
        x0 = np.minimum(_segment_min(r_xs, r_offsets), _segment_min(s_xs, s_offsets))
        y0 = np.minimum(_segment_min(r_ys, r_offsets), _segment_min(s_ys, s_offsets))
        x0 = np.where(np.isfinite(x0), x0, 0.0)
        y0 = np.where(np.isfinite(y0), y0, 0.0)

    cell_ids = np.arange(num_cells, dtype=np.int64)
    p_cell = np.repeat(cell_ids, p_offsets[1:] - p_offsets[:-1])
    b_cell = np.repeat(cell_ids, b_offsets[1:] - b_offsets[:-1])
    p_u = p_xs - x0[p_cell]
    p_v = p_ys - y0[p_cell]
    b_u = b_xs - x0[b_cell]
    b_v = b_ys - y0[b_cell]
    extent = max(float(np.abs(a).max()) for a in (p_u, p_v, b_u, b_v))
    if not extent <= _MAX_EXTENT * eps:
        return None

    # build keys occupy [1, bands - 2] x [1, quanta - 2] of their cell's
    # block; probes are clipped to [0, bands - 1] x [0, quanta - 1], so a
    # probe beyond the build side's range finds an empty key range, never
    # a neighbour's
    height = eps * _BAND_HEIGHT
    b_band = np.floor(b_v / height).astype(np.int64)
    b_quant = np.floor(b_u / quantum).astype(np.int64)
    band_shift = 1 - int(b_band.min())
    bands = int(b_band.max()) + band_shift + 2
    quant_shift = 1 - int(b_quant.min())
    quanta = int(b_quant.max()) + quant_shift + 2
    num_keys = num_cells * bands * quanta
    if num_keys >= 2**62:  # python ints: no silent overflow
        return None
    b_key = (b_cell * bands + (b_band + band_shift)) * quanta + (b_quant + quant_shift)
    order, b_key = stable_argsort(b_key, num_keys)
    build_ids = build_ids[order]
    # x and y travel as one complex: one repeat and one gather per block
    # instead of two; subtraction and squares stay per-component
    build_xy = np.column_stack((b_xs[order], b_ys[order])).view(np.complex128).ravel()
    probe_xy = np.column_stack((p_xs, p_ys)).view(np.complex128).ravel()

    # windows, probe-major: row i holds point i's bands below / own / above
    eps_sq = eps * eps
    p_band = np.floor(p_v / height)
    below = p_v - p_band * height
    above = height - below
    half = np.empty((len(probe_ids), 3))
    half[:, 0] = np.sqrt(np.maximum(eps_sq - below * below, 0.0))
    half[:, 1] = eps
    half[:, 2] = np.sqrt(np.maximum(eps_sq - above * above, 0.0))
    block = p_band.astype(np.int64)[:, None] + (band_shift + np.arange(-1, 2))
    np.minimum(np.maximum(block, 0, out=block), bands - 1, out=block)
    block += p_cell[:, None] * bands
    block *= quanta

    def window_ends(edge, pad, side):
        key = np.floor(edge / quantum).astype(np.int64)
        key += quant_shift + pad
        np.minimum(np.maximum(key, 0, out=key), quanta - 1, out=key)
        key += block
        # sorted needles walk b_key front to back instead of missing the
        # cache on every probe; the answers are scattered back probe-major
        order, key = stable_argsort(key.ravel(), num_keys)
        ends = np.empty(len(order), dtype=np.int64)
        ends[order] = np.searchsorted(b_key, key, side=side)
        return ends

    u = p_u[:, None]
    lo = window_ends(u - half, -1, "left")
    hi = window_ends(u + half, 1, "right")

    counts = hi - lo
    before = np.zeros(len(counts) + 1, dtype=np.int64)  # candidates before window i
    np.cumsum(counts, out=before[1:])
    lo -= before[:-1]
    point_before = before[::3]
    cell_before = point_before[p_offsets]
    return GridHashProbe(
        int(before[-1]), cell_before[1:] - cell_before[:-1], swapped, p_offsets,
        probe_ids, probe_xy, build_ids, build_xy, lo, counts, point_before,
        cell_before, eps_sq,
    )


def grid_hash_expand(
    probe: GridHashProbe, out_r: np.ndarray | None, out_s: np.ndarray | None, offset: int = 0
) -> tuple[int, np.ndarray]:
    """Test a probe's candidates; write the hits from ``offset`` onwards.

    ``out_r``/``out_s`` are the caller's columns, with room for
    ``probe.total`` entries from ``offset``; only the entries up to the
    returned end offset are written (and their pages touched).  With
    both ``None`` the expand only counts: the same blocks and the same
    test give the same ``(end, bounds)``, and no id is gathered.
    Candidates are expanded in blocks of :data:`_BLOCK_CANDIDATES`, each
    taking the exact float64 test, and hits land in cell order,
    probe-major inside a cell.  No block straddles a change of roles:
    where S probes, the probe ids go to ``out_s`` and the build ids to
    ``out_r`` -- one flip for a task in plan order.  Returns ``(end,
    bounds)``: cell ``i``'s pairs are ``out[bounds[i]:bounds[i + 1]]``,
    with ``bounds[0] == offset`` and ``bounds[-1] == end``.  A second
    expand of the same probe writes the same pairs again.
    """
    if probe.total == 0:
        return offset, np.full(len(probe.cell_before), offset, dtype=np.int64)
    first, counts = probe.first, probe.counts
    point_before, cell_before = probe.point_before, probe.cell_before
    probe_ids, probe_xy = probe.probe_ids, probe.probe_xy
    build_ids, build_xy = probe.build_ids, probe.build_xy
    swapped, offsets = probe.swapped, probe.offsets
    point_counts = point_before[1:] - point_before[:-1]
    # blocks of whole points holding ~_BLOCK_CANDIDATES candidates each,
    # also cut where the roles change
    cuts = np.searchsorted(point_before, np.arange(0, probe.total, _BLOCK_CANDIDATES))
    flips = offsets[1:-1][swapped[1:] != swapped[:-1]]
    cuts = np.sort(np.concatenate((cuts, flips, [len(probe_ids)])))
    cuts = cuts[run_starts(cuts)]
    # a block's role is that of the cell holding its first point
    block_swapped = swapped[np.searchsorted(offsets, cuts[:-1], side="right") - 1].tolist()
    cuts = cuts.tolist()
    ramp = np.arange(
        int(np.max(point_before[cuts[1:]] - point_before[cuts[:-1]], initial=0)),
        dtype=np.int64,
    )
    bounds = np.empty(len(cell_before), dtype=np.int64)  # hits before cell i
    cell = 0
    num_hits = offset
    for a, b, swap in zip(cuts[:-1], cuts[1:], block_swapped):
        start, stop = int(point_before[a]), int(point_before[b])
        windows = np.repeat(first[3 * a : 3 * b] + start, counts[3 * a : 3 * b])
        windows += ramp[: stop - start]
        cnt = point_counts[a:b]
        d = np.repeat(probe_xy[a:b], cnt)
        d -= build_xy[windows]
        d = d.view(np.float64)
        d *= d
        hit = np.flatnonzero(d[0::2] + d[1::2] <= probe.eps_sq)
        upto = num_hits + len(hit)
        if out_r is not None:
            out_probe, out_build = (out_s, out_r) if swap else (out_r, out_s)
            out_probe[num_hits:upto] = np.repeat(probe_ids[a:b], cnt)[hit]
            out_build[num_hits:upto] = build_ids[windows[hit]]
        # cells whose first candidate lies in this block start at the hit
        # count reached just before it
        last = int(np.searchsorted(cell_before, stop, side="left"))
        bounds[cell:last] = num_hits + np.searchsorted(
            hit, cell_before[cell:last] - start
        )
        cell = last
        num_hits = upto
    bounds[cell:] = num_hits
    return num_hits, bounds


def _expand_owned(probe: GridHashProbe) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand into columns of the probe's own: ``(out_r, out_s, bounds)``.

    One allocation per column, sized for every candidate: pages past the
    last hit are never touched, and the tail is handed back.
    """
    dtype = np.result_type(probe.probe_ids, probe.build_ids)
    out_r = np.empty(probe.total, dtype=dtype)
    out_s = np.empty(probe.total, dtype=dtype)
    end, bounds = grid_hash_expand(probe, out_r, out_s)
    out_r.resize(end, refcheck=False)
    out_s.resize(end, refcheck=False)
    return out_r, out_s, bounds


#: Kernel registry used by join configurations.
LOCAL_KERNELS = {
    "nested_loop": nested_loop_join,
    "plane_sweep": plane_sweep_join,
    "grid_hash": grid_hash_join,
}

# Publish the kernels to the engine-owned registry the executor resolves
# names against (repro.engine.kernels); the engine layer never imports
# this module, so registration happens here, at import time of the layer
# that defines the kernels.
from repro.engine.kernels import register_batch_kernel as _register_batch_kernel
from repro.engine.kernels import register_kernel as _register_kernel

for _name, _kernel in LOCAL_KERNELS.items():
    _register_kernel(_name, _kernel)
del _name, _kernel

# Batched (whole-task) variant: only grid_hash has one -- its integer
# band/x keys compose across cells without touching float arithmetic.
# The float-keyed kernels keep their per-cell loop inside the worker.
_register_batch_kernel("grid_hash", grid_hash_probe, grid_hash_expand)
