"""Block store subsystem: shuffle spill, checkpointing, fine-grained recovery.

The paper's Spark realization materializes map outputs on the executors'
local disks, so a reducer that loses a fetch re-requests only the missing
blocks -- it never re-reads whole source partitions.  This package gives
the reproduction the same storage substrate:

* :class:`~repro.engine.blockstore.store.BlockStore` spills map-side
  shuffle output as addressable blocks, one per *(side, source partition,
  target cell-group)*, with exact byte accounting and a configurable
  in-memory / on-disk tier plus LRU eviction;
* :class:`~repro.engine.blockstore.checkpoint.CheckpointManager`
  snapshots per-cell partial join results as reduce tasks complete them,
  so a killed or timed-out attempt salvages finished cells and re-runs
  only the remainder.

See ``docs/STORAGE.md`` for the block layout and the recovery flow.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "checkpoint": ("CellCheckpoint", "CheckpointManager"),
    "store": (
        "SPILL_TIERS", "BlockId", "BlockLost", "BlockMeta", "BlockStore",
        "SpillConfig",
    ),
})
