"""The job's spill store: shuffle blocks and cell checkpoints.

Spark keeps shuffle blocks and checkpointed partitions in one
BlockManager on one set of tiers; this store holds both things a join
spills, as two keyspaces of one directory:

* A *block* is the batch of shuffle records one map source emits toward
  one reduce destination -- the unit Spark's shuffle service serves and
  the unit a ``FetchFailed`` reducer re-requests.  Blocks are addressed
  by :class:`BlockId` ``(side, src, dst)`` and carry two parallel arrays
  (the 1-d cell ids and the point indices of the records), so a lost
  fetch can be healed from the store without touching the source
  partition.
* A *cell checkpoint* is one cell's kernel output, keyed by plan position
  and saved the moment the kernel returns it, so the next attempt of a
  killed or timed-out reduce task *salvages* the finished cells and
  re-runs only the remainder.  It records the kernel's exact output
  arrays plus the measured seconds the cell cost, so a salvaged cell is
  bit-identical to a recomputed one and the executor can report the
  seconds the salvage preserved.

Two tiers are supported:

``memory``
    Blocks and cells live in dicts; blocks are held by reference.  Cells
    survive retries on the ``serial`` and ``threads`` backends but
    **not** a killed pool worker -- exactly like Spark partials kept on
    an executor heap.
``disk``
    One ``.npz`` file per block or cell in the spill directory, written
    atomically (temp file + ``os.replace``) and readable across process
    boundaries -- the tier that makes salvage work under real worker
    kills.

A store pickled toward a pool worker travels as a
small *handle*: no blocks, and it never deletes anything.  A memory-tier
handle is *detached* -- its cell saves are dropped (they could never
reach the parent) and its loads miss; a disk-tier handle saves and loads
cells through the shared directory.

An unreadable block raises :class:`BlockLost` into the refetch path; an
unreadable cell (a kill mid-write) is a miss, so the cell is recomputed.

The store owns every file it writes: :meth:`BlockStore.close`, in the
creating process only, removes them (and the spill directory, when the
store created it), so no spill data survives a job -- including jobs
aborted by an exhausted retry budget.  The store is a context manager.
"""

from __future__ import annotations

import os
import zipfile  # np.load reads an .npz through it; numpy imports it anyway
from dataclasses import dataclass

import numpy as np

from repro.engine.telemetry import get_logger

#: Spill tiers of ``ExecutionSettings.spill`` (``none`` opens no store).
SPILL_TIERS = ("none", "memory", "disk")

#: What reading a missing, truncated or corrupt spill file raises.
_UNREADABLE = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile)


class BlockLost(RuntimeError):
    """A spilled block's file is gone or unreadable (truncated/corrupt).

    Raised by :meth:`BlockStore.fetch` when the disk tier cannot read a
    block back.  The block is marked dropped, so callers that route the
    miss through the normal refetch path (recompute the block's records
    from the source partition) heal the loss instead of crashing.
    """

    def __init__(self, block_id: "BlockId", cause: BaseException):
        self.block_id = block_id
        self.cause_type = type(cause).__name__
        super().__init__(
            f"spilled block {block_id.filename()!r} unreadable "
            f"({self.cause_type}: {cause})"
        )


@dataclass(frozen=True, order=True)
class BlockId:
    """Address of one spilled shuffle block: side x source x destination."""

    side: str  # "R" or "S"
    src: int  # source partition (map worker)
    dst: int  # target cell-group (reduce worker)

    def filename(self) -> str:
        return f"block_{self.side}_{self.src:04d}_{self.dst:04d}.npz"


@dataclass
class BlockMeta:
    """Bookkeeping for one block, kept even after its file is lost.

    ``bytes`` is the *modelled* serialized size (records x record size),
    the quantity the shuffle accounting and the cost model use.
    """

    block_id: BlockId
    records: int
    bytes: int
    location: str = "memory"  # memory | disk | dropped


@dataclass(frozen=True)
class CellCheckpoint:
    """One cell's snapshotted kernel output."""

    rid: np.ndarray
    sid: np.ndarray
    candidates: int
    #: Measured kernel seconds the cell cost when first computed --
    #: the seconds a salvage preserves.
    seconds: float


def _cell_filename(pos: int) -> str:
    return f"cell_{pos:08d}.npz"


class BlockStore:
    """One job's shuffle blocks and cell checkpoints, on one tier."""

    def __init__(self, tier: str = "memory", spill_dir: str | None = None,
                 tracer=None):
        if tier not in SPILL_TIERS or tier == "none":
            raise ValueError(
                f"BlockStore tier must be 'memory' or 'disk', got {tier!r}"
            )
        self.tier = tier
        #: Optional :class:`~repro.engine.telemetry.Tracer`: spills and
        #: fetches become ``blockstore`` events when it is enabled (a
        #: ``None``/disabled tracer costs one check per call).
        self._tracer = tracer
        self._log = get_logger(
            "repro.engine.blockstore",
            tracer.run_id if tracer is not None else None,
        )
        self._user_dir = spill_dir
        self._dir: str | None = None
        self._owns_dir = False
        self._mem: dict[BlockId, dict[str, np.ndarray]] = {}
        self._meta: dict[BlockId, BlockMeta] = {}
        self._cells: dict[int, CellCheckpoint] = {}
        #: A memory-tier copy in another process: see :meth:`__getstate__`.
        self._detached = False
        self._closed = False
        #: Only the creating process may delete files: forked or pickled
        #: copies in pool workers never clean up under it.
        self._pid = os.getpid()
        # accounting
        self.blocks_spilled = 0
        self.spilled_bytes = 0  # modelled bytes across all puts
        self.blocks_dropped = 0  # disk blocks found unreadable
        self.hits = 0
        self.misses = 0
        self.fetched_bytes = 0  # modelled bytes served by fetch hits
        if tier == "disk":
            # eager: pool workers must share this directory, not invent one
            self._directory()

    # ------------------------------------------------------------------
    # directory and files
    # ------------------------------------------------------------------
    def _directory(self) -> str:
        """The spill directory, created on first use.

        An unusable user-configured directory (permission denied, bad
        path) falls back to a fresh temp directory -- with a *warning*,
        because spill data silently landing somewhere the user did not
        ask for is exactly the kind of surprise a post-mortem needs to
        see.  The warning honours the CLI's ``--quiet`` via the standard
        :mod:`logging` tree.
        """
        if self._dir is None:
            # the disk tier's own imports: a job without one never pays
            # for them
            import tempfile

            from repro.engine.hygiene import write_owner_marker

            if self._user_dir is not None:
                try:
                    if not os.path.isdir(self._user_dir):
                        # we created it, so close() may remove it
                        os.makedirs(self._user_dir, exist_ok=True)
                        self._owns_dir = True
                    self._dir = self._user_dir
                except OSError as exc:
                    self._dir = tempfile.mkdtemp(prefix="repro-spill-")
                    self._owns_dir = True
                    self._log.warning(
                        "spill dir %r is unusable (%s: %s); "
                        "falling back to temp directory %r",
                        self._user_dir, type(exc).__name__, exc, self._dir,
                    )
            else:
                self._dir = tempfile.mkdtemp(prefix="repro-spill-")
                self._owns_dir = True
                self._log.debug("spilling to temp directory %r", self._dir)
            if self._owns_dir:
                # tag owned dirs with our pid so a crashed run's leftover
                # directory can be swept by the next run's startup
                # hygiene (see repro.engine.hygiene)
                write_owner_marker(self._dir)
        return self._dir

    def _write(self, name: str, arrays: dict[str, np.ndarray]) -> None:
        """Atomically persist one file: temp file then ``os.replace``, so
        a reader sees the old file, the new one, or none -- never half."""
        import tempfile

        directory = self._directory()
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, os.path.join(directory, name))
        except BaseException:
            if os.path.exists(tmp):  # pragma: no cover - defensive
                os.unlink(tmp)
            raise

    def _read(self, name: str) -> dict[str, np.ndarray]:
        """Every array of one file; raises one of :data:`_UNREADABLE`."""
        with np.load(os.path.join(self._directory(), name)) as payload:
            return {key: payload[key] for key in payload.files}

    # ------------------------------------------------------------------
    # shuffle blocks
    # ------------------------------------------------------------------
    def put(
        self,
        block_id: BlockId,
        arrays: dict[str, np.ndarray],
        records: int,
        logical_bytes: int,
    ) -> BlockMeta:
        """Spill one block (overwrites any previous block at this id).

        The memory tier stores ``arrays`` *by reference* -- zero-copy by
        contract, so callers may (and the shuffle does) pass slice views
        into one backing array instead of per-block copies.  Treat a put
        block as frozen: the same objects come back from :meth:`fetch`.
        The disk tier serializes (npz); a fetch then returns fresh arrays.
        """
        if self._closed:
            raise RuntimeError("BlockStore is closed")
        meta = BlockMeta(block_id, records, logical_bytes)
        if self.tier == "disk":
            self._write(block_id.filename(), arrays)
            meta.location = "disk"
        else:
            self._mem[block_id] = arrays
        self._meta[block_id] = meta
        self.blocks_spilled += 1
        self.spilled_bytes += logical_bytes
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.event(
                "block_spill",
                cat="blockstore",
                side=block_id.side,
                src=block_id.src,
                dst=block_id.dst,
                records=records,
                bytes=logical_bytes,
                location=meta.location,
            )
        return meta

    def fetch(
        self, block_id: BlockId
    ) -> tuple[BlockMeta | None, dict[str, np.ndarray] | None]:
        """Read one block back: ``(meta, arrays)``.

        ``(None, None)`` when no block was ever spilled at this address;
        ``(meta, None)`` when the block's file was found unreadable by an
        earlier fetch (the caller must recompute its records).  A
        memory-tier hit hands back the stored arrays themselves
        (zero-copy, no pickle/npz round-trip) -- callers must not mutate
        them.
        """
        meta = self._meta.get(block_id)
        if meta is None:
            return None, None
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.event(
                "block_fetch",
                cat="blockstore",
                side=block_id.side,
                src=block_id.src,
                dst=block_id.dst,
                location=meta.location,
                hit=meta.location != "dropped",
            )
        if meta.location == "memory":
            self.hits += 1
            self.fetched_bytes += meta.bytes
            return meta, self._mem[block_id]
        if meta.location == "disk":
            try:
                arrays = self._read(block_id.filename())
            except _UNREADABLE as exc:
                # the file is gone, truncated, or corrupt: demote the
                # block to dropped (so a later fetch is a plain miss) and
                # raise the typed loss for the refetch path to heal
                meta.location = "dropped"
                self.blocks_dropped += 1
                self.misses += 1
                self._log.warning(
                    "spilled block %s unreadable (%s); marked dropped",
                    block_id.filename(), type(exc).__name__,
                )
                if self._tracer is not None and self._tracer.enabled:
                    self._tracer.event(
                        "block_lost",
                        cat="blockstore",
                        side=block_id.side,
                        src=block_id.src,
                        dst=block_id.dst,
                        error_type=type(exc).__name__,
                    )
                raise BlockLost(block_id, exc) from exc
            self.hits += 1
            self.fetched_bytes += meta.bytes
            return meta, arrays
        self.misses += 1
        return meta, None

    def meta(self, block_id: BlockId) -> BlockMeta | None:
        return self._meta.get(block_id)

    def sources_for(self, dst: int) -> list[int]:
        """Map sources that spilled at least one block toward ``dst``."""
        return sorted({bid.src for bid in self._meta if bid.dst == dst})

    def __len__(self) -> int:
        return len(self._meta)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._meta

    # ------------------------------------------------------------------
    # cell checkpoints
    # ------------------------------------------------------------------
    def save_cell(
        self, pos: int, rid: np.ndarray, sid: np.ndarray, candidates: int,
        seconds: float,
    ) -> None:
        """Checkpoint one completed cell (idempotent; last writer wins)."""
        if self._detached or self._closed:
            return
        rid = np.ascontiguousarray(rid, dtype=np.int64)
        sid = np.ascontiguousarray(sid, dtype=np.int64)
        if self.tier == "memory":
            self._cells[pos] = CellCheckpoint(rid, sid, int(candidates), seconds)
        else:
            self._write(_cell_filename(pos), {
                "rid": rid, "sid": sid,
                "candidates": np.int64(candidates), "seconds": np.float64(seconds),
            })

    def load_cell(self, pos: int) -> CellCheckpoint | None:
        """The checkpoint for one plan position, or ``None``.

        On disk the file is the record: a cell a worker copy
        saved is visible here without any bookkeeping in this process.
        """
        if self._detached or self._closed:
            return None
        if self.tier == "memory":
            return self._cells.get(pos)
        try:
            arrays = self._read(_cell_filename(pos))
            return CellCheckpoint(
                arrays["rid"], arrays["sid"],
                int(arrays["candidates"]), float(arrays["seconds"]),
            )
        except _UNREADABLE:
            return None  # never saved, or half-written by a kill: recompute

    # ------------------------------------------------------------------
    # pickling and cleanup
    # ------------------------------------------------------------------
    def __getstate__(self):
        # a copy shipped to a pool worker is a handle: no
        # blocks, cells or tracer travel, it never deletes (no owner
        # pid), and a memory-tier copy is detached -- its saves could
        # never reach this process, so they are dropped and its loads miss
        state = self.__dict__.copy()
        state.update(
            _mem={}, _meta={}, _cells={}, _tracer=None, _pid=None,
            _detached=self.tier == "memory",
        )
        return state

    def close(self) -> None:
        """Release every block and cell (idempotent).

        In the creating process, removes the spill directory when the
        store created it; a user-provided directory is left in place,
        emptied of blocks, cells and the temp files of writes aborted
        mid-spill (including those of worker copies).
        """
        if self._closed:
            return
        self._closed = True
        self._mem.clear()
        self._meta.clear()
        self._cells.clear()
        if self._dir is None or os.getpid() != self._pid:
            return  # nothing on disk, or a copy: the owner cleans up
        if self._owns_dir:
            import shutil

            shutil.rmtree(self._dir, ignore_errors=True)
        elif os.path.isdir(self._dir):
            for name in os.listdir(self._dir):
                if name.startswith(("block_", "cell_")) or name.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(self._dir, name))
                    except OSError:  # pragma: no cover - defensive
                        pass
        self._dir = None

    def __enter__(self) -> "BlockStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass
