"""Local (per-partition) epsilon-distance join kernels.

After the shuffle, each grid cell holds the R and S points assigned to it;
a local kernel finds all pairs within ``eps`` and reports how many
*candidate* pairs it examined -- the quantity driving the modelled join
cost.  Four kernels are provided:

* :func:`nested_loop_join` -- the quadratic reference;
* :func:`plane_sweep_join` -- sort by x, compare only within an x-window
  of ``eps`` (the classic PBSM local algorithm; ``JoinConfig``'s default
  and the kernel the driver goldens pin);
* :func:`grid_hash_join` -- bucket S into horizontal bands of height
  ``eps`` sorted by x, and give each R point an x-window in its own band
  and the two adjacent ones, narrowed by its vertical gap to the band:
  the candidate set is close to the ``eps``-disc.  One implementation in
  two steps -- :func:`grid_hash_probe` windows all cells of a worker task
  in one pass, :func:`grid_hash_expand` writes the hits into columns the
  caller supplies; the per-cell kernel is the one-cell case;
* :func:`rtree_join` -- bulk-load an STR R-tree on S and range-probe the
  R points (the kernel Sedona uses; included for the kernel comparison the
  paper's related work motivates [Sidlauskas & Jensen, VLDB 2014]).
  Probes are batched: R is sorted by x and each leaf is matched against a
  contiguous R range instead of descending the tree once per point.

All kernels take parallel arrays and return ``(r_ids, s_ids, candidates)``
with one entry per result pair.  The keyword-only ``origin`` argument
anchors :func:`grid_hash_join`'s bands and x-keys (the other kernels
ignore it); without it the anchor is the minimum coordinate present.
Passing the enclosing grid cell's MBR origin makes band boundaries -- and
hence candidate counts -- independent of the data actually present in the
cell.  The pair *set* never depends on the anchor.  The candidate count
is not symmetric in R and S: the side passed as S is the one that is
banded and sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Band S by rows of height ``eps``; probe each R point's three rows
    with sorted-x windows -- the one-cell case of
    :func:`grid_hash_probe` + :func:`grid_hash_expand`.

    An ``eps`` the banding cannot key (zero, infinite, or so small
    against the extent that the keys would overflow) is answered by
    :func:`plane_sweep_join`, whose float window needs no keys.
    """
    origins = None if origin is None else np.array([origin], dtype=np.float64)
    probe = grid_hash_probe(
        r_ids, r_xs, r_ys, np.array([0, len(r_ids)], dtype=np.int64),
        s_ids, s_xs, s_ys, np.array([0, len(s_ids)], dtype=np.int64),
        eps, origins,
    )
    if probe is None:
        return plane_sweep_join(r_ids, r_xs, r_ys, s_ids, s_xs, s_ys, eps)
    out_r, out_s, _ = _expand_owned(probe)
    return out_r, out_s, int(probe.candidates[0])


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
    """What :func:`grid_hash_probe` found: every R point's three windows
    into the sorted S side, and the candidate counts they add up to.

    Holds no output; :func:`grid_hash_expand` turns it into result pairs.
    """

    #: Candidate pairs over all cells -- the most hits an expand can write.
    total: int
    #: Candidate pairs per cell.
    candidates: np.ndarray
    r_ids: np.ndarray
    r_xy: np.ndarray  # complex128: x + iy
    sid: np.ndarray  # S ids and coordinates in (cell, band, x) order
    s_xy: np.ndarray
    first: np.ndarray  # per probe: window start minus its candidate offset
    counts: np.ndarray  # per probe: window length
    point_before: np.ndarray  # candidates before R point i (len |R| + 1)
    cell_before: np.ndarray  # candidates before cell i (len cells + 1)
    eps_sq: float


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

    Relative to its cell's origin ``(x0, y0)`` a point has ``u = x - x0``
    and ``v = y - y0``.  S is bucketed into horizontal *bands* of height
    ``h = eps * (1 + 2^-16)`` and sorted once by the integer key ::

        (cell * bands + floor(v / h)) * quanta + floor(u / q),   q = eps / 2^12

    i.e. by ``(cell, band, x)``.  An R point probes three bands: its own
    with the x-window ``u +- eps`` and the two neighbours with ``u +-
    sqrt(eps^2 - g^2)``, ``g`` being its vertical gap to that band.  A
    window is the key range ``floor((u - w) / q) - 1 .. floor((u + w) /
    q) + 1`` inside the band's key block, found by two binary searches.
    Expected candidate area: ``(2 + pi) eps^2`` against the ``pi eps^2``
    disc.  Every candidate later takes the exact float64 test ``dx*dx +
    dy*dy <= eps*eps`` on the original coordinates
    (:func:`grid_hash_expand`).

    *The windows are a superset of the accepted pairs.*  If the float
    test accepts ``(r, s)`` then ``|x_r - x_s|`` and ``|y_r - y_s|`` are
    at most ``eps (1 + 2^-50)``.  ``u`` and ``v`` are single float
    subtractions, so ``u_r - u_s`` and ``v_r - v_s`` reproduce those
    differences to within ``2^-52 * extent``, and extents above
    ``2^20 eps`` decline -- every rounding term below is under
    ``2^-30 eps``.  (i) ``|v_r - v_s| / h < 1``, so ``s`` sits in ``r``'s
    band or an adjacent one.  (ii) In an adjacent band ``|y_r - y_s| >=
    g - 2^-30 eps``, hence ``(x_r - x_s)^2 <= eps^2 - g^2 + 2^-28
    eps^2`` and ``|u_r - u_s| <= w + 2^-14 eps``: less than the quantum,
    which is what the one-key pad absorbs.  (iii) S keys lie strictly
    inside their cell's and band's key block and probes are clipped to
    the block, so no window reaches another band's or cell's points.

    Probes are laid out R-major (``point x band``), so candidates -- and
    the hits among them -- are grouped by cell, in input order of R.
    What a cell contributes is exactly what the kernel finds for that
    segment alone -- same pairs, same order, same candidate count: keys
    are relative to the cell's origin, the global shifts below are
    monotone, and the stable sort keeps equal keys in input order.

    Returns ``None`` (decline; the caller falls back to the per-cell
    loop, the one-cell kernel to :func:`plane_sweep_join`) when ``eps``
    is not positive and finite, the extent bound above is exceeded, or
    the keys would overflow int64.
    """
    num_cells = len(r_offsets) - 1
    if num_cells == 0 or len(r_ids) == 0 or len(s_ids) == 0:
        zeros = np.zeros(num_cells + 1, dtype=np.int64)
        return GridHashProbe(
            0, zeros[1:], r_ids[:0], _EMPTY_XY, s_ids[:0], _EMPTY_XY,
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
    r_cell = np.repeat(cell_ids, r_offsets[1:] - r_offsets[:-1])
    s_cell = np.repeat(cell_ids, s_offsets[1:] - s_offsets[:-1])
    r_u = r_xs - x0[r_cell]
    r_v = r_ys - y0[r_cell]
    s_u = s_xs - x0[s_cell]
    s_v = s_ys - y0[s_cell]
    extent = max(float(np.abs(a).max()) for a in (r_u, r_v, s_u, s_v))
    if not extent <= _MAX_EXTENT * eps:
        return None

    # S keys occupy [1, bands - 2] x [1, quanta - 2] of their cell's block;
    # probes are clipped to [0, bands - 1] x [0, quanta - 1], so a probe
    # beyond S's range finds an empty key range, never a neighbour's
    height = eps * _BAND_HEIGHT
    s_band = np.floor(s_v / height).astype(np.int64)
    s_quant = np.floor(s_u / quantum).astype(np.int64)
    band_shift = 1 - int(s_band.min())
    bands = int(s_band.max()) + band_shift + 2
    quant_shift = 1 - int(s_quant.min())
    quanta = int(s_quant.max()) + quant_shift + 2
    num_keys = num_cells * bands * quanta
    if num_keys >= 2**62:  # python ints: no silent overflow
        return None
    s_key = (s_cell * bands + (s_band + band_shift)) * quanta + (s_quant + quant_shift)
    order, s_key = stable_argsort(s_key, num_keys)
    sid = s_ids[order]
    # x and y travel as one complex: one repeat and one gather per block
    # instead of two; subtraction and squares stay per-component
    s_xy = np.column_stack((s_xs[order], s_ys[order])).view(np.complex128).ravel()
    r_xy = np.column_stack((r_xs, r_ys)).view(np.complex128).ravel()

    # probes, R-major: row i holds point i's bands below / own / above
    eps_sq = eps * eps
    r_band = np.floor(r_v / height)
    below = r_v - r_band * height
    above = height - below
    half = np.empty((len(r_ids), 3))
    half[:, 0] = np.sqrt(np.maximum(eps_sq - below * below, 0.0))
    half[:, 1] = eps
    half[:, 2] = np.sqrt(np.maximum(eps_sq - above * above, 0.0))
    block = r_band.astype(np.int64)[:, None] + (band_shift + np.arange(-1, 2))
    np.minimum(np.maximum(block, 0, out=block), bands - 1, out=block)
    block += r_cell[:, None] * bands
    block *= quanta

    def window_ends(edge, pad, side):
        key = np.floor(edge / quantum).astype(np.int64)
        key += quant_shift + pad
        np.minimum(np.maximum(key, 0, out=key), quanta - 1, out=key)
        key += block
        # sorted needles walk s_key front to back instead of missing the
        # cache on every probe; the answers are scattered back R-major
        order, key = stable_argsort(key.ravel(), num_keys)
        ends = np.empty(len(order), dtype=np.int64)
        ends[order] = np.searchsorted(s_key, key, side=side)
        return ends

    u = r_u[:, None]
    lo = window_ends(u - half, -1, "left")
    hi = window_ends(u + half, 1, "right")

    counts = hi - lo
    before = np.zeros(len(counts) + 1, dtype=np.int64)  # candidates before probe i
    np.cumsum(counts, out=before[1:])
    lo -= before[:-1]
    point_before = before[::3]
    cell_before = point_before[r_offsets]
    return GridHashProbe(
        int(before[-1]), cell_before[1:] - cell_before[:-1],
        r_ids, r_xy, sid, s_xy, lo, counts, point_before, cell_before, eps_sq,
    )


def grid_hash_expand(
    probe: GridHashProbe, out_r: np.ndarray, out_s: np.ndarray, offset: int = 0
) -> tuple[int, np.ndarray]:
    """Test a probe's candidates; write the hits from ``offset`` onwards.

    ``out_r``/``out_s`` are the caller's columns, with room for
    ``probe.total`` entries from ``offset``; only the entries up to the
    returned end offset are written (and their pages touched).
    Candidates are expanded in blocks of :data:`_BLOCK_CANDIDATES`, each
    taking the exact float64 test, and hits land in cell order, R-major
    inside a cell.  Returns ``(end, bounds)``: cell ``i``'s pairs are
    ``out[bounds[i]:bounds[i + 1]]``, with ``bounds[0] == offset`` and
    ``bounds[-1] == end``.  A second expand of the same probe writes the
    same pairs again.
    """
    if probe.total == 0:
        return offset, np.full(len(probe.cell_before), offset, dtype=np.int64)
    first, counts = probe.first, probe.counts
    point_before, cell_before = probe.point_before, probe.cell_before
    r_ids, r_xy, sid, s_xy = probe.r_ids, probe.r_xy, probe.sid, probe.s_xy
    point_counts = point_before[1:] - point_before[:-1]
    # blocks of whole points holding ~_BLOCK_CANDIDATES candidates each
    cuts = np.searchsorted(point_before, np.arange(0, probe.total, _BLOCK_CANDIDATES))
    cuts = np.append(cuts[run_starts(cuts)], len(r_ids)).tolist()
    ramp = np.arange(
        int(np.max(point_before[cuts[1:]] - point_before[cuts[:-1]], initial=0)),
        dtype=np.int64,
    )
    bounds = np.empty(len(cell_before), dtype=np.int64)  # hits before cell i
    cell = 0
    num_hits = offset
    for a, b in zip(cuts[:-1], cuts[1:]):
        start, stop = int(point_before[a]), int(point_before[b])
        windows = np.repeat(first[3 * a : 3 * b] + start, counts[3 * a : 3 * b])
        windows += ramp[: stop - start]
        cnt = point_counts[a:b]
        d = np.repeat(r_xy[a:b], cnt)
        d -= s_xy[windows]
        d = d.view(np.float64)
        d *= d
        hit = np.flatnonzero(d[0::2] + d[1::2] <= probe.eps_sq)
        upto = num_hits + len(hit)
        out_r[num_hits:upto] = np.repeat(r_ids[a:b], cnt)[hit]
        out_s[num_hits:upto] = sid[windows[hit]]
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
    out_r = np.empty(probe.total, dtype=probe.r_ids.dtype)
    out_s = np.empty(probe.total, dtype=probe.sid.dtype)
    end, bounds = grid_hash_expand(probe, out_r, out_s)
    out_r.resize(end, refcheck=False)
    out_s.resize(end, refcheck=False)
    return out_r, out_s, bounds


def grid_hash_join_batch(
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
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray] | None:
    """All cells of one worker task: :func:`grid_hash_probe`, columns of
    its own, :func:`grid_hash_expand`.

    Entry ``i`` of each returned list is exactly what
    :func:`grid_hash_join` returns for segment ``i`` alone -- same pairs,
    same order, same candidate count.  ``None`` when the probe declines.
    """
    probe = grid_hash_probe(
        r_ids, r_xs, r_ys, r_offsets, s_ids, s_xs, s_ys, s_offsets, eps, origins
    )
    if probe is None:
        return None
    out_r, out_s, bounds = _expand_owned(probe)
    pair_r = [out_r[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    pair_s = [out_s[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return pair_r, pair_s, probe.candidates


def rtree_join(
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
    """Build an STR R-tree on S; probe the R points' ``eps``-discs.

    Probes are batched instead of descending the tree once per point: R is
    sorted by x, every leaf matches a contiguous run of R probes (found by
    two binary searches on the leaf's x-extent), and the per-(probe, leaf)
    y-overlap filter plus the final distance test run vectorized over the
    expanded ranges.  A probe's candidate count is the total entry count of
    the leaves whose MBR intersects its eps-box -- identical to what the
    per-point tree descent inspects, since a leaf's MBR is contained in
    every ancestor's.
    """
    from repro.baselines.rtree import RTree  # local import: avoid a cycle

    if len(r_ids) == 0 or len(s_ids) == 0:
        return _EMPTY, _EMPTY, 0
    tree = RTree(s_xs, s_ys)
    leaves = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(node.children)
    entries = np.concatenate([leaf.entries for leaf in leaves])
    sizes = np.array([len(leaf.entries) for leaf in leaves], dtype=np.int64)
    entry_off = np.concatenate(([0], np.cumsum(sizes)))
    lxmin = np.array([leaf.mbr.xmin for leaf in leaves])
    lymin = np.array([leaf.mbr.ymin for leaf in leaves])
    lxmax = np.array([leaf.mbr.xmax for leaf in leaves])
    lymax = np.array([leaf.mbr.ymax for leaf in leaves])

    r_order = np.argsort(r_xs, kind="stable")
    rx = r_xs[r_order]
    ry = r_ys[r_order]
    # contiguous run of R probes whose eps-box overlaps each leaf's x-extent
    r_lo = np.searchsorted(rx, lxmin - eps, side="left")
    r_hi = np.searchsorted(rx, lxmax + eps, side="right")
    leaf_i, probe_i = _expand_ranges(r_lo, r_hi)
    if len(leaf_i) == 0:
        return _EMPTY, _EMPTY, 0
    y_overlap = (ry[probe_i] >= lymin[leaf_i] - eps) & (
        ry[probe_i] <= lymax[leaf_i] + eps
    )
    leaf_i = leaf_i[y_overlap]
    probe_i = probe_i[y_overlap]
    candidates = int(sizes[leaf_i].sum())
    if candidates == 0:
        return _EMPTY, _EMPTY, 0
    # expand each surviving (probe, leaf) pair to the leaf's entries
    pair_i, entry_slot = _expand_ranges(entry_off[leaf_i], entry_off[leaf_i + 1])
    cand_s = entries[entry_slot]
    cand_r = probe_i[pair_i]
    dx = rx[cand_r] - s_xs[cand_s]
    dy = ry[cand_r] - s_ys[cand_s]
    hit = dx * dx + dy * dy <= eps * eps
    return r_ids[r_order[cand_r[hit]]], s_ids[cand_s[hit]], candidates


#: Kernel registry used by join configurations.
LOCAL_KERNELS = {
    "nested_loop": nested_loop_join,
    "plane_sweep": plane_sweep_join,
    "grid_hash": grid_hash_join,
    "rtree": rtree_join,
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
