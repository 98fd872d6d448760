"""Shuffle accounting: record and byte volumes, local vs remote.

During a shuffle every emitted ``(key, tuple)`` record travels from the
map worker holding the input split to the reduce worker owning the key's
partition.  Records whose source and destination workers differ are
*remote reads* -- the quantity Figs. 11, 13b, 14b and 16-18a of the paper
report.  The accounting here is exact given the record-size model
(24 bytes of id+coordinates, plus payload, plus key overhead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.metrics import CostModel

#: Modelled serialized size of the shuffle key (the 1-d cell id).
KEY_BYTES = 8


@dataclass
class ShuffleStats:
    """Accumulated shuffle volumes for one job."""

    records: int = 0
    bytes: int = 0
    remote_records: int = 0
    remote_bytes: int = 0
    #: Records/bytes read *again* after a failed shuffle fetch (fault
    #: recovery); kept apart from the regular volumes so the paper's
    #: remote-read figures stay comparable under fault injection.  With
    #: the block store enabled these count only the missing blocks'
    #: records (``refetch_blocks`` of them); without it, whole-partition
    #: re-reads.
    refetch_records: int = 0
    refetch_bytes: int = 0
    refetch_blocks: int = 0
    #: Optional worker-to-worker byte matrix (row = source, column =
    #: destination), the Spark-UI "shuffle read by executor" view.  Off
    #: by default; switched on by :meth:`enable_matrix` when a run report
    #: wants it, so plain runs pay nothing for it.
    matrix: np.ndarray | None = None

    def enable_matrix(self, num_workers: int) -> None:
        """Start accumulating the per-(src, dst) byte matrix."""
        if self.matrix is None:
            self.matrix = np.zeros((num_workers, num_workers), dtype=np.int64)

    def add_transfers(
        self,
        src_workers: np.ndarray,
        dst_workers: np.ndarray,
        record_bytes: int | np.ndarray,
        num_workers: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Account a batch of records; returns its ``(records, bytes)``
        worker-to-worker matrices (row = source, column = destination).

        ``record_bytes`` is one size shared by the whole batch (points:
        every tuple serializes identically) or a per-record array of
        sizes (objects with extent; must parallel ``src_workers``).
        Every volume is read off one ``bincount`` over the shuffle edges.
        """
        W = num_workers
        edge = src_workers * W + dst_workers
        counts = np.bincount(edge, minlength=W * W).reshape(W, W)
        if np.ndim(record_bytes) == 0:
            volume = counts * record_bytes
        else:  # float64 sums of integers: exact below 2**53
            volume = np.bincount(edge, weights=record_bytes, minlength=W * W)
            volume = volume.astype(np.int64).reshape(W, W)
        records, total = int(counts.sum()), int(volume.sum())
        self.records += records
        self.bytes += total
        self.remote_records += records - int(counts.trace())
        self.remote_bytes += total - int(volume.trace())
        if self.matrix is not None:
            self.matrix += volume
        return counts, volume

    def add_single(self, src_worker: int, dst_worker: int, record_bytes: int) -> None:
        """Account one record."""
        self.records += 1
        self.bytes += record_bytes
        if src_worker != dst_worker:
            self.remote_records += 1
            self.remote_bytes += record_bytes
        if self.matrix is not None:
            self.matrix[src_worker, dst_worker] += record_bytes

    def add_refetch(self, records: int, total_bytes: int, blocks: int = 0) -> None:
        """Account a re-read after a failed fetch.

        ``blocks`` is the number of spilled blocks that served it (0 for
        a legacy full-partition re-read).
        """
        self.refetch_records += records
        self.refetch_bytes += total_bytes
        self.refetch_blocks += blocks

    def merge(self, other: "ShuffleStats") -> None:
        self.records += other.records
        self.bytes += other.bytes
        self.remote_records += other.remote_records
        self.remote_bytes += other.remote_bytes
        self.refetch_records += other.refetch_records
        self.refetch_bytes += other.refetch_bytes
        self.refetch_blocks += other.refetch_blocks
        if other.matrix is not None:
            if self.matrix is None:
                self.matrix = other.matrix.copy()
            else:
                self.matrix += other.matrix


def input_splits(idxs: np.ndarray, n: int, W: int) -> tuple[np.ndarray, np.ndarray]:
    """The map worker of each input tuple in ``idxs``, and every worker's
    tuple count: splits are contiguous chunks, tuple ``i`` of ``n`` maps
    on worker ``i * W // n``, so worker ``w`` maps
    ``ceil((w + 1) n / W) - ceil(w n / W)`` tuples."""
    return (idxs * W) // max(n, 1), np.diff(-(-np.arange(W + 1) * n // W))


def read_seconds(
    records: np.ndarray, volume: np.ndarray, cm: CostModel, record_cost: float
) -> np.ndarray:
    """Modelled read seconds per destination of one batch, from its
    (source, destination) record and byte matrices (see
    :meth:`ShuffleStats.add_transfers`): remote bytes, local bytes and
    records at their unit costs, in closed form, so the order the records
    were emitted in reaches no clock."""
    local = volume.diagonal()
    return (
        (volume.sum(axis=0) - local) * cm.remote_byte_cost
        + local * cm.local_byte_cost
        + records.sum(axis=0) * record_cost
    )
