"""Unit tests for the block store subsystem (repro.engine.blockstore):
spill tiers, atomic persistence, per-cell checkpoints as the store's
second keyspace, and the cleanup guarantees the fault-tolerance machinery
relies on.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.engine import hygiene
from repro.engine.blockstore import BlockId, BlockStore


def block_arrays(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "cells": rng.integers(0, 100, n).astype(np.int64),
        "points": np.arange(n, dtype=np.int64),
    }


# ----------------------------------------------------------------------
# spill settings: validated where make_context opens the store
# ----------------------------------------------------------------------
def open_context(**settings):
    from repro.engine.metrics import JoinMetrics
    from repro.joins.distance_join import JoinConfig
    from repro.joins.pipeline import make_context

    return make_context(
        JoinConfig(eps=0.02, **settings), num_workers=2, metrics=JoinMetrics()
    )


class TestSpillConfig:
    def test_defaults_disabled(self):
        from repro.joins.distance_join import JoinConfig

        assert JoinConfig(eps=0.02).spill == "none"
        assert open_context().store is None

    @pytest.mark.parametrize("tier", ("memory", "disk"))
    def test_real_tiers_enabled(self, tier):
        with open_context(spill=tier, checkpoint_cells=True).store as store:
            assert store.tier == tier

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown spill tier"):
            open_context(spill="tape")

    def test_spill_dir_requires_tier(self):
        with pytest.raises(ValueError, match="spill_dir requires"):
            open_context(spill_dir="/tmp/somewhere")

    def test_checkpoints_require_tier(self):
        with pytest.raises(ValueError, match="checkpoint_cells requires"):
            open_context(checkpoint_cells=True)


# ----------------------------------------------------------------------
# BlockStore
# ----------------------------------------------------------------------
class TestBlockStore:
    def test_rejects_none_tier(self):
        with pytest.raises(ValueError):
            BlockStore("none")

    @pytest.mark.parametrize("tier", ("memory", "disk"))
    def test_put_fetch_roundtrip(self, tier, tmp_path):
        with BlockStore(tier, spill_dir=str(tmp_path)) as store:
            arrays = block_arrays(50)
            bid = BlockId("R", 0, 2)
            store.put(bid, arrays, records=50, logical_bytes=50 * 32)
            meta, back = store.fetch(bid)
            assert meta.records == 50
            assert meta.bytes == 50 * 32
            assert np.array_equal(back["cells"], arrays["cells"])
            assert np.array_equal(back["points"], arrays["points"])
            assert store.blocks_spilled == 1
            assert store.hits == 1 and store.misses == 0
            assert store.fetched_bytes == 50 * 32

    def test_fetch_unknown_block(self, tmp_path):
        with BlockStore("disk", spill_dir=str(tmp_path)) as store:
            assert store.fetch(BlockId("S", 1, 1)) == (None, None)
            assert store.misses == 0  # never-spilled is not a miss

    def test_put_overwrites(self, tmp_path):
        with BlockStore("disk", spill_dir=str(tmp_path)) as store:
            bid = BlockId("R", 0, 0)
            store.put(bid, block_arrays(10, seed=1), records=10, logical_bytes=100)
            store.put(bid, block_arrays(20, seed=2), records=20, logical_bytes=200)
            meta, back = store.fetch(bid)
            assert meta.records == 20
            assert len(back["cells"]) == 20
            assert len(store) == 1

    def test_sources_for(self):
        with BlockStore("memory") as store:
            for side, src, dst in (("R", 0, 1), ("S", 2, 1), ("R", 1, 0)):
                store.put(BlockId(side, src, dst), block_arrays(5), 5, 50)
            assert store.sources_for(1) == [0, 2]
            assert store.sources_for(0) == [1]
            assert store.sources_for(9) == []

    def test_close_removes_files_and_owned_dir(self, tmp_path):
        user_dir = tmp_path / "spill"
        store = BlockStore("disk", spill_dir=str(user_dir))
        store.put(BlockId("R", 0, 0), block_arrays(10), 10, 100)
        assert any(user_dir.iterdir())
        store.close()
        assert not user_dir.exists()  # store created the dir, so it goes

    def test_close_spares_preexisting_dir(self, tmp_path):
        keep = tmp_path / "keep.txt"
        keep.write_text("mine")
        store = BlockStore("disk", spill_dir=str(tmp_path))
        store.put(BlockId("R", 0, 0), block_arrays(10), 10, 100)
        store.close()
        assert list(tmp_path.iterdir()) == [keep]  # only our files removed

    def test_close_idempotent_and_blocks_put(self, tmp_path):
        store = BlockStore("disk", spill_dir=str(tmp_path / "s"))
        store.close()
        store.close()
        with pytest.raises(RuntimeError):
            store.put(BlockId("R", 0, 0), block_arrays(1), 1, 10)

    def test_worker_copy_never_deletes_parent_files(self, tmp_path):
        """A store copy inside a pool worker (simulated by faking the
        recorded pid) must not clean up files under the parent."""
        store = BlockStore("disk", spill_dir=str(tmp_path / "s"))
        store.put(BlockId("R", 0, 0), block_arrays(10), 10, 100)
        clone = pickle.loads(pickle.dumps(store))
        clone._pid = store._pid + 1  # pretend the clone lives elsewhere
        clone.close()
        meta, back = store.fetch(BlockId("R", 0, 0))
        assert back is not None  # the parent's file survived
        store.close()


# ----------------------------------------------------------------------
# cell checkpoints: the store's second keyspace
# ----------------------------------------------------------------------
def save_one(store, pos):
    store.save_cell(pos, np.array([1]), np.array([2]), 3, 0.5)


class TestCheckpointManager:
    """The store as the executor's ``checkpoints`` handle."""

    @pytest.mark.parametrize("tier", ("memory", "disk"))
    def test_save_load_roundtrip(self, tier, tmp_path):
        with BlockStore(tier, str(tmp_path / "ckpt")) as store:
            rid = np.array([3, 1, 4], dtype=np.int64)
            sid = np.array([1, 5, 9], dtype=np.int64)
            store.save_cell(7, rid, sid, candidates=42, seconds=0.125)
            rec = store.load_cell(7)
            assert np.array_equal(rec.rid, rid)
            assert np.array_equal(rec.sid, sid)
            assert rec.candidates == 42
            assert rec.seconds == pytest.approx(0.125)
            assert store.load_cell(8) is None
            assert len(store) == 0  # cells are not shuffle blocks

    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            BlockStore("tape")

    def test_disk_checkpoints_survive_reopen(self, tmp_path):
        """Cells a worker or daemon copy writes are visible to the parent
        through the file alone -- that is what makes salvage work across
        process kills."""
        store = BlockStore("disk", str(tmp_path / "ckpt"))
        clone = pickle.loads(pickle.dumps(store))
        save_one(clone, 0)
        assert store.load_cell(0) is not None
        clone.close()
        store.close()

    def test_memory_tier_detaches_on_pickle(self):
        store = BlockStore("memory")
        save_one(store, 0)
        for src in range(4):  # 1.6 MB of resident shuffle blocks
            store.put(BlockId("R", src, 0), block_arrays(100_000, seed=src),
                      100_000, 3_200_000)
        blob = pickle.dumps(store)
        assert len(blob) < 4096  # a handle, not the shuffle
        clone = pickle.loads(blob)
        assert clone.load_cell(0) is None  # heap partials don't cross processes
        save_one(clone, 1)
        assert clone.load_cell(1) is None  # detached saves are dropped
        assert clone.fetch(BlockId("R", 0, 0)) == (None, None)
        assert store.load_cell(0) is not None  # the parent keeps its own
        store.close()

    def test_close_removes_created_dir(self, tmp_path):
        directory = tmp_path / "ckpt"
        store = BlockStore("disk", str(directory))
        save_one(store, 0)
        store.close()
        assert not directory.exists()

    def test_close_spares_preexisting_dir(self, tmp_path):
        keep = tmp_path / "keep.txt"
        keep.write_text("mine")
        store = BlockStore("disk", str(tmp_path))
        save_one(store, 0)
        save_one(pickle.loads(pickle.dumps(store)), 1)  # a worker's cell
        store.put(BlockId("R", 0, 0), block_arrays(10), 10, 100)
        store.close()
        assert list(tmp_path.iterdir()) == [keep]

    def test_half_written_file_tolerated(self, tmp_path):
        directory = tmp_path / "ckpt"
        store = BlockStore("disk", str(directory))
        for pos, damage in enumerate(("garbage", "truncated")):
            save_one(store, pos)
            path = str(directory / f"cell_{pos:08d}.npz")
            TestBlockLoss.damage_file(path, damage)
            assert store.load_cell(pos) is None  # a kill mid-write: recompute
        store.close()

    def test_worker_copy_never_deletes(self, tmp_path):
        """A copy shipped to a worker process -- pickled, or forked with
        the parent's pid recorded -- never removes the parent's cells."""
        directory = tmp_path / "ckpt"
        store = BlockStore("disk", str(directory))
        save_one(store, 0)
        pickle.loads(pickle.dumps(store)).close()
        forked = pickle.loads(pickle.dumps(store))
        forked._pid = store._pid + 1
        forked.close()
        assert store.load_cell(0) is not None
        store.close()
        assert not directory.exists()


# ----------------------------------------------------------------------
# disk-tier corruption: an unreadable spill file is a typed, healable
# loss (BlockLost), never a crash and never a silent wrong answer
# ----------------------------------------------------------------------
class TestBlockLoss:
    @staticmethod
    def damage_file(path, mode):
        if mode == "truncated":
            with open(path, "r+b") as fh:
                fh.truncate(7)  # a kill mid-write leaves a partial zip
        elif mode == "garbage":
            with open(path, "wb") as fh:
                fh.write(b"this is not an npz archive")
        else:  # deleted
            os.unlink(path)

    @pytest.mark.parametrize("damage", ("truncated", "garbage", "deleted"))
    def test_unreadable_block_raises_blocklost(self, tmp_path, damage):
        from repro.engine.blockstore import BlockLost

        with BlockStore("disk", spill_dir=str(tmp_path)) as store:
            bid = BlockId("R", 0, 1)
            arrays = block_arrays(30)
            store.put(bid, arrays, records=30, logical_bytes=30 * 32)
            path = tmp_path / bid.filename()
            assert path.exists()
            self.damage_file(str(path), damage)

            with pytest.raises(BlockLost, match="unreadable") as exc:
                store.fetch(bid)
            assert exc.value.block_id == bid
            assert store.blocks_dropped == 1
            meta = store.meta(bid)
            assert meta.location == "dropped"
            # a later fetch is a plain miss (meta, None), not a re-raise
            meta_again, back = store.fetch(bid)
            assert meta_again is meta
            assert back is None

    def test_healthy_blocks_unaffected_by_sibling_loss(self, tmp_path):
        from repro.engine.blockstore import BlockLost

        with BlockStore("disk", spill_dir=str(tmp_path)) as store:
            bad, good = BlockId("R", 0, 1), BlockId("S", 0, 1)
            store.put(bad, block_arrays(10), records=10, logical_bytes=320)
            store.put(good, block_arrays(20, seed=1), records=20,
                      logical_bytes=640)
            self.damage_file(str(tmp_path / bad.filename()), "garbage")
            with pytest.raises(BlockLost):
                store.fetch(bad)
            meta, back = store.fetch(good)
            assert meta.location == "disk"
            assert np.array_equal(back["points"],
                                  block_arrays(20, seed=1)["points"])

    def test_pipeline_heals_corrupt_block_via_refetch(self, tmp_path,
                                                      monkeypatch):
        """End to end: a fetch fault forces a block refetch; the spilled
        file has been corrupted in the meantime; recovery must fall back
        to regenerating the records and still return the exact answer."""
        from repro.data.generators import gaussian_clusters
        from repro.engine.blockstore.store import BlockStore as StoreCls
        from repro.joins.distance_join import JoinConfig, distance_join

        r = gaussian_clusters(420, seed=51, name="R")
        s = gaussian_clusters(380, seed=52, name="S")
        base = dict(eps=0.02, method="lpib", num_workers=3,
                    local_kernel="plane_sweep")
        clean = distance_join(r, s, JoinConfig(**base))

        sabotaged = []
        orig_fetch = StoreCls.fetch

        def sabotaging_fetch(self, block_id):
            # corrupt the file under the store's feet on the first
            # disk-resident fetch (i.e. the first recovery refetch)
            meta = self.meta(block_id)
            if not sabotaged and meta is not None and meta.location == "disk":
                path = os.path.join(self._directory(), block_id.filename())
                TestBlockLoss.damage_file(path, "truncated")
                sabotaged.append(block_id)
            return orig_fetch(self, block_id)

        monkeypatch.setattr(StoreCls, "fetch", sabotaging_fetch)
        spill_dir = tmp_path / "spill"
        res = distance_join(r, s, JoinConfig(
            **base, execution_backend="threads", executor_workers=2,
            faults="fetch:p=1:times=1", max_retries=3,
            spill="disk", spill_dir=str(spill_dir), checkpoint_cells=True,
        ))
        assert sabotaged, "no refetch ever touched a disk block"
        assert np.array_equal(res.r_ids, clean.r_ids)
        assert np.array_equal(res.s_ids, clean.s_ids)
        assert res.metrics.blocks_refetched > 0
        assert not spill_dir.exists() or list(spill_dir.iterdir()) == []


# ----------------------------------------------------------------------
# startup hygiene: reclaiming what a crashed run left behind
# ----------------------------------------------------------------------
def dead_pid() -> int:
    """A pid that provably names no live process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    assert not hygiene.pid_alive(proc.pid)
    return proc.pid


class TestStartupHygiene:
    def test_sweep_removes_only_provably_dead_resources(self, tmp_path):
        stale_pid = dead_pid()
        tmp_root = tmp_path / "tmp"
        shm_dir = tmp_path / "shm"
        tmp_root.mkdir()
        shm_dir.mkdir()

        # stale spill dir (dead owner) -> removed
        stale_dir = tmp_root / "repro-spill-stale"
        stale_dir.mkdir()
        (stale_dir / "block_R_0000_0001.npz").write_bytes(b"x")
        hygiene.write_owner_marker(str(stale_dir), pid=stale_pid)
        # live-owner dir -> kept
        live_dir = tmp_root / "repro-ckpt-live"
        live_dir.mkdir()
        hygiene.write_owner_marker(str(live_dir))
        # unmarked dir -> kept (cannot attribute an owner)
        unmarked = tmp_root / "repro-spill-unmarked"
        unmarked.mkdir()
        # unrelated dir -> never considered
        other = tmp_root / "someone-elses-data"
        other.mkdir()

        # orphaned shm segment (dead owner embedded in name) -> removed
        stale_seg = shm_dir / f"repro_{stale_pid}_0_abc123"
        stale_seg.write_bytes(b"y")
        # live segment -> kept
        live_seg = shm_dir / f"repro_{os.getpid()}_1_def456"
        live_seg.write_bytes(b"z")
        # foreign segment -> never considered
        foreign_seg = shm_dir / "psm_whatever"
        foreign_seg.write_bytes(b"w")

        report = hygiene.sweep_stale_resources(
            tmp_root=str(tmp_root), shm_dir=str(shm_dir)
        )
        assert report["dirs_removed"] == [str(stale_dir)]
        assert report["segments_removed"] == [stale_seg.name]
        assert not stale_dir.exists()
        assert not stale_seg.exists()
        assert live_dir.exists() and unmarked.exists() and other.exists()
        assert live_seg.exists() and foreign_seg.exists()
        assert str(live_dir) in report["skipped"]
        assert str(unmarked) in report["skipped"]

    def test_sweep_is_idempotent_and_safe_on_empty(self, tmp_path):
        report = hygiene.sweep_stale_resources(
            tmp_root=str(tmp_path), shm_dir=str(tmp_path / "missing")
        )
        assert report == {
            "dirs_removed": [], "segments_removed": [],
            "sockets_removed": [], "skipped": [],
        }

    def test_shm_owner_parsing(self):
        assert hygiene.shm_segment_owner("repro_1234_0_ab") == 1234
        assert hygiene.shm_segment_owner("repro_bogus") is None
        assert hygiene.shm_segment_owner("psm_1234") is None
        assert hygiene.pid_alive(os.getpid())
        assert not hygiene.pid_alive(0)
        assert not hygiene.pid_alive(dead_pid())

    def test_spill_dirs_are_owner_tagged(self, tmp_path):
        """The block store tags the directories it creates, so a future
        sweep can attribute them."""
        from repro.engine.blockstore import BlockId, BlockStore

        target = tmp_path / "spill"
        with BlockStore("disk", spill_dir=str(target)) as store:
            store.put(
                BlockId("R", 0, 0),
                {"cells": np.arange(4, dtype=np.int64)},
                records=4, logical_bytes=128,
            )
            marker = target / hygiene.OWNER_MARKER
            assert marker.exists()
            assert int(marker.read_text()) == os.getpid()
