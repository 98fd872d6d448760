"""Post-join processing: duplicate elimination and attribute attachment.

Two concerns live here:

* **Duplicate elimination** (:func:`distinct_pairs`): the vectorized
  set-build shared by every driver that needs a ``distinct`` over result
  pairs.  Pairs are packed into single ``int64`` keys
  (``rid << 32 | sid``) and deduplicated with ``np.unique`` -- orders of
  magnitude faster than a Python ``set`` of tuples.
* **Attribute attachment** (:func:`post_process_attributes`, Table 5):
  the paper contrasts carrying tuples' extra attributes through the
  spatial join with joining them back afterwards -- two id-equi-joins
  between the result pairs and the original inputs.  The model here
  prices the post-processing route, which the paper measures to be ~3x
  slower than carrying the attributes along.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.pointset import PointSet
from repro.engine.metrics import COST_MODEL
from repro.engine.shuffle import KEY_BYTES

#: Bytes of a bare (rid, sid) result pair.
_PAIR_BYTES = 16

_ID_BITS = 32
_ID_MASK = np.int64((1 << _ID_BITS) - 1)


def pack_pair_keys(r_ids: np.ndarray, s_ids: np.ndarray) -> np.ndarray:
    """Pack ``(rid, sid)`` pairs into single int64 keys.

    Requires ids in ``[0, 2**32)`` -- true for every generator and reader
    in this library, and asserted here so a silent collision is
    impossible.
    """
    if len(r_ids):
        lo = min(int(r_ids.min()), int(s_ids.min()))
        hi = max(int(r_ids.max()), int(s_ids.max()))
        if lo < 0 or hi >= (1 << _ID_BITS):
            raise ValueError("pair packing requires ids in [0, 2**32)")
    return (r_ids.astype(np.int64) << np.int64(_ID_BITS)) | s_ids.astype(np.int64)


def unpack_pair_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_pair_keys`."""
    return (
        (keys >> np.int64(_ID_BITS)).astype(np.int64),
        (keys & _ID_MASK).astype(np.int64),
    )


def distinct_pairs(
    r_ids: np.ndarray, s_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated result pairs, sorted by ``(rid, sid)``.

    The vectorized replacement for ``set(zip(r_ids, s_ids))``: one key
    pack, one ``np.unique``, one unpack.
    """
    if len(r_ids) == 0:
        return np.asarray(r_ids, dtype=np.int64), np.asarray(s_ids, dtype=np.int64)
    return unpack_pair_keys(np.unique(pack_pair_keys(r_ids, s_ids)))


def merge_sorted_unique(blocks: list[np.ndarray]) -> np.ndarray:
    """Merge sorted-unique int64 key blocks into one sorted-unique array.

    The driver-side half of batched deduplication: each worker hands back
    its locally ``np.unique``-d key block; a single k-way merge (numpy's
    stable mergesort gallops through pre-sorted runs) plus an
    adjacent-duplicate mask replaces a full re-``np.unique`` over the
    concatenated keys.  Bit-identical to ``np.unique(concat(blocks))``.
    """
    blocks = [b for b in blocks if len(b)]
    if not blocks:
        return np.empty(0, dtype=np.int64)
    if len(blocks) == 1:
        return blocks[0]
    merged = np.concatenate(blocks)
    merged = np.sort(merged, kind="stable")
    keep = np.empty(len(merged), dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


@dataclass
class PostProcessReport:
    """Modelled cost of attaching attributes after the join."""

    shuffle_bytes: int
    remote_bytes: int
    records: int
    time_model: float


def post_process_attributes(
    num_results: int,
    r: PointSet,
    s: PointSet,
    num_workers: int,
) -> PostProcessReport:
    """Model the two id-joins that fetch attributes for the result pairs.

    Join 1 matches result pairs against R by ``rid`` (shuffling both);
    join 2 matches the enriched pairs against S by ``sid``.  With hash
    partitioning a fraction ``(W - 1) / W`` of records is remote.
    """
    cm = COST_MODEL
    remote_fraction = (num_workers - 1) / num_workers

    # join 1: pairs + full R set
    bytes_join1 = num_results * (KEY_BYTES + _PAIR_BYTES) + len(r) * (
        KEY_BYTES + r.record_bytes
    )
    records_join1 = num_results + len(r)
    # join 2: enriched pairs (now carrying R's payload) + full S set
    bytes_join2 = num_results * (KEY_BYTES + _PAIR_BYTES + r.payload_bytes) + len(
        s
    ) * (KEY_BYTES + s.record_bytes)
    records_join2 = num_results + len(s)

    total_bytes = bytes_join1 + bytes_join2
    total_records = records_join1 + records_join2
    remote_bytes = int(total_bytes * remote_fraction)
    local_bytes = total_bytes - remote_bytes

    aggregate_cost = (
        remote_bytes * cm.remote_byte_cost
        + local_bytes * cm.local_byte_cost
        + total_records * (cm.reduce_record_cost + cm.map_tuple_cost)
        + num_results * 2 * cm.emit_cost
    )
    # Hash partitioning spreads an id-join evenly; makespan ~ mean load.
    time_model = aggregate_cost / num_workers + 2 * cm.job_overhead
    return PostProcessReport(
        shuffle_bytes=total_bytes,
        remote_bytes=remote_bytes,
        records=total_records,
        time_model=time_model,
    )
