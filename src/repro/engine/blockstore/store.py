"""The shuffle block store: addressable spilled map outputs.

A *block* is the batch of shuffle records one map source emits toward one
reduce destination -- the unit Spark's shuffle service serves and the unit
a ``FetchFailed`` reducer re-requests.  Blocks are addressed by
:class:`BlockId` ``(side, src, dst)`` and carry two parallel arrays (the
1-d cell ids and the point indices of the records), so a lost fetch can
be healed from the store without touching the source partition.

Two tiers are supported:

``memory``
    Blocks live in an LRU dict.  When ``memory_limit_bytes`` is exceeded
    the least-recently-used block is *evicted*: written to the spill
    directory when one is configured, otherwise dropped (a later fetch of
    a dropped block misses and the caller falls back to recomputing that
    block's records -- still far cheaper than a full re-read).
``disk``
    Blocks are written straight to the spill directory as ``.npz`` files
    (atomic: temp file + ``os.replace``), one file per block.

The store owns every file it writes: :meth:`BlockStore.close` removes
them (and the temporary spill directory, when the store created one), so
no spill data survives a job -- including jobs aborted by an exhausted
retry budget.  The store is a context manager.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.engine.telemetry import get_logger

#: Spill tiers accepted by :class:`SpillConfig` (``none`` disables the store).
SPILL_TIERS = ("none", "memory", "disk")


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


@dataclass(frozen=True)
class SpillConfig:
    """How (and whether) a join job spills shuffle output and checkpoints.

    ``tier`` selects the storage tier (:data:`SPILL_TIERS`); ``none``
    keeps the legacy behaviour with no store at all.  ``checkpoint_cells``
    additionally snapshots per-cell partial join results so killed reduce
    attempts salvage finished cells; it requires a real spill tier.
    """

    tier: str = "none"
    spill_dir: str | None = None
    memory_limit_bytes: int | None = None
    checkpoint_cells: bool = False

    def __post_init__(self):
        if self.tier not in SPILL_TIERS:
            raise ValueError(
                f"unknown spill tier {self.tier!r}; choose from {SPILL_TIERS}"
            )
        if self.tier == "none":
            if self.spill_dir is not None:
                raise ValueError("spill_dir requires a spill tier (memory or disk)")
            if self.checkpoint_cells:
                raise ValueError(
                    "checkpoint_cells requires a spill tier (memory or disk)"
                )
        if self.memory_limit_bytes is not None and self.memory_limit_bytes < 0:
            raise ValueError(
                f"memory_limit_bytes must be >= 0, got {self.memory_limit_bytes}"
            )

    @property
    def enabled(self) -> bool:
        return self.tier != "none"


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
    """Bookkeeping for one block, kept even after eviction.

    ``bytes`` is the *modelled* serialized size (records x record size),
    the quantity the shuffle accounting and the cost model use; ``nbytes``
    is the actual footprint of the stored arrays.
    """

    block_id: BlockId
    records: int
    bytes: int
    nbytes: int
    location: str = "memory"  # memory | disk | dropped


class BlockStore:
    """Spilled shuffle blocks with byte accounting and LRU eviction."""

    def __init__(
        self,
        tier: str = "memory",
        spill_dir: str | None = None,
        memory_limit_bytes: int | None = None,
        tracer=None,
    ):
        if tier not in SPILL_TIERS or tier == "none":
            raise ValueError(
                f"BlockStore tier must be 'memory' or 'disk', got {tier!r}"
            )
        self.tier = tier
        self.memory_limit_bytes = memory_limit_bytes
        #: Optional :class:`~repro.engine.telemetry.Tracer`: spills,
        #: fetches and evictions become ``blockstore`` events when it is
        #: enabled (a ``None``/disabled tracer costs one check per call).
        self._tracer = tracer
        self._log = get_logger(
            "repro.engine.blockstore",
            tracer.run_id if tracer is not None else None,
        )
        self._user_dir = spill_dir
        self._dir: str | None = None
        self._owns_dir = False
        self._mem: OrderedDict[BlockId, dict[str, np.ndarray]] = OrderedDict()
        self._meta: dict[BlockId, BlockMeta] = {}
        self._files: set[str] = set()
        self._closed = False
        #: Only the creating process may delete files: forked copies in
        #: pool workers must never clean up under the parent.
        self._pid = os.getpid()
        # accounting
        self.blocks_spilled = 0
        self.spilled_bytes = 0  # modelled bytes across all puts
        self.bytes_in_memory = 0  # actual bytes resident in the memory tier
        self.bytes_on_disk = 0  # actual bytes written to spill files
        self.evictions = 0
        self.blocks_dropped = 0
        self.fetches = 0
        self.hits = 0
        self.misses = 0
        self.fetched_bytes = 0  # modelled bytes served by fetch hits
        if tier == "disk":
            # eager: directory ownership must be settled before anyone
            # else (e.g. a checkpoint manager) creates paths beneath it
            self._directory()

    # ------------------------------------------------------------------
    # directory management
    # ------------------------------------------------------------------
    def _directory(self) -> str:
        """The spill directory, created on first use.

        An unusable user-configured directory (permission denied, bad
        path) falls back to a fresh temp directory -- with a *warning*,
        because spill data silently landing somewhere the user did not
        ask for is exactly the kind of surprise a post-mortem needs to
        see.  The warning honours the CLI's ``--log-level``/``--quiet``
        via the standard :mod:`logging` tree.
        """
        if self._dir is None:
            # the spill tier's own imports: a job without a store never
            # pays for them (SpillConfig lives in this module too)
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

    @property
    def can_spill_to_disk(self) -> bool:
        """Whether evictions land on disk (a directory is configured)."""
        return self.tier == "disk" or self._user_dir is not None

    # ------------------------------------------------------------------
    # put / fetch
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
        Only eviction to disk serializes (npz); a later disk fetch then
        returns fresh arrays.
        """
        if self._closed:
            raise RuntimeError("BlockStore is closed")
        self._discard(block_id)
        nbytes = int(sum(a.nbytes for a in arrays.values()))
        meta = BlockMeta(block_id, records, logical_bytes, nbytes)
        if self.tier == "disk":
            self._write(block_id, arrays, meta)
        else:
            self._mem[block_id] = arrays
            meta.location = "memory"
            self.bytes_in_memory += nbytes
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
        if self.memory_limit_bytes is not None:
            while self.bytes_in_memory > self.memory_limit_bytes and self._mem:
                self._evict_lru()
        return meta

    def fetch(
        self, block_id: BlockId
    ) -> tuple[BlockMeta | None, dict[str, np.ndarray] | None]:
        """Read one block back: ``(meta, arrays)``.

        ``(None, None)`` when no block was ever spilled at this address;
        ``(meta, None)`` when the block existed but was dropped by
        eviction (the caller must recompute its records).  A memory-tier
        hit hands back the stored arrays themselves (zero-copy, no
        pickle/npz round-trip) -- callers must not mutate them.
        """
        meta = self._meta.get(block_id)
        if meta is None:
            return None, None
        self.fetches += 1
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
            self._mem.move_to_end(block_id)  # LRU touch
            self.hits += 1
            self.fetched_bytes += meta.bytes
            return meta, self._mem[block_id]
        if meta.location == "disk":
            import zipfile  # np.load imports it for an .npz anyway

            path = os.path.join(self._directory(), block_id.filename())
            try:
                with np.load(path) as payload:
                    arrays = {key: payload[key] for key in payload.files}
            except (OSError, ValueError, EOFError, KeyError,
                    zipfile.BadZipFile) as exc:
                # the file is gone, truncated, or corrupt: demote the
                # block to dropped (so a later fetch is a plain miss) and
                # raise the typed loss for the refetch path to heal
                meta.location = "dropped"
                self.blocks_dropped += 1
                self.misses += 1
                self._files.discard(path)
                self.bytes_on_disk -= meta.nbytes
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
    # eviction
    # ------------------------------------------------------------------
    def _evict_lru(self) -> None:
        block_id, arrays = self._mem.popitem(last=False)
        meta = self._meta[block_id]
        self.bytes_in_memory -= meta.nbytes
        self.evictions += 1
        if self.can_spill_to_disk:
            self._write(block_id, arrays, meta)
        else:
            meta.location = "dropped"
            self.blocks_dropped += 1
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.event(
                "block_evict",
                cat="blockstore",
                side=block_id.side,
                src=block_id.src,
                dst=block_id.dst,
                to=meta.location,
            )

    def _write(
        self, block_id: BlockId, arrays: dict[str, np.ndarray], meta: BlockMeta
    ) -> None:
        """Atomically persist one block: temp file then ``os.replace``."""
        import tempfile

        directory = self._directory()
        path = os.path.join(directory, block_id.filename())
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):  # pragma: no cover - defensive
                os.unlink(tmp)
            raise
        meta.location = "disk"
        self._files.add(path)
        self.bytes_on_disk += meta.nbytes

    def _discard(self, block_id: BlockId) -> None:
        """Forget a block (free its memory / remove its file)."""
        meta = self._meta.pop(block_id, None)
        if meta is None:
            return
        if meta.location == "memory":
            self._mem.pop(block_id, None)
            self.bytes_in_memory -= meta.nbytes
        elif meta.location == "disk":
            path = os.path.join(self._directory(), block_id.filename())
            self._files.discard(path)
            self.bytes_on_disk -= meta.nbytes
            if os.path.exists(path):
                os.unlink(path)

    # ------------------------------------------------------------------
    # cleanup
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every resource the store holds (idempotent).

        Removes every spill file written, plus the spill directory when
        the store created it (a user-provided directory is left in place,
        emptied of this store's files).
        """
        if self._closed:
            return
        self._closed = True
        self._mem.clear()
        self._meta.clear()
        self.bytes_in_memory = 0
        if os.getpid() != self._pid:
            return  # a worker-process copy: the owner cleans up
        for path in list(self._files):
            try:
                os.unlink(path)
            except FileNotFoundError:  # pragma: no cover - defensive
                pass
        self._files.clear()
        if self._dir is not None and self._owns_dir:
            import shutil

            shutil.rmtree(self._dir, ignore_errors=True)
        elif self._dir is not None:
            # sweep leftover temp files from writes aborted mid-spill
            for name in os.listdir(self._dir):
                if name.endswith(".tmp") or name.startswith("block_"):
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
