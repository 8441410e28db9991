"""Incremental checkpoint chain: dirty tracking, composition, fallback.

A checkpoint publishes one link of a chain under ``<db>/checkpoints/``:
a segment holding only the tables that changed since their last
snapshot, plus a manifest mapping every live table to the segment that
holds its newest snapshot. These tests pin the cost model (clean tables
are never rewritten), chain composition across restarts, torn-manifest
fallback, garbage collection, and the metrics-driven scheduler that
triggers checkpoints from the maintenance daemon.
"""

import glob
import os
import time

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.obs import get_registry
from repro.query.predicate import Eq
from repro.storage.types import DataType

from tests.conftest import make_config

ITEMS = {"id": DataType.INT64, "name": DataType.STRING}


def _fill_tables(db, n_tables=10, rows=200):
    for i in range(n_tables):
        db.create_table(f"t{i}", ITEMS)
        db.bulk_insert(
            f"t{i}", [{"id": j, "name": f"n{j % 9}"} for j in range(rows)]
        )


def _chain(db):
    return db._driver._chain.directory


class TestIncrementalCost:
    def test_one_dirty_table_writes_fraction_of_full(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
        _fill_tables(db, n_tables=10, rows=200)
        full = db.checkpoint()  # everything dirty: full snapshot
        db.bulk_insert("t3", [{"id": 900 + i, "name": "new"} for i in range(5)])
        incremental = db.checkpoint()  # only t3 re-snapshotted
        assert full > 0
        assert incremental < 0.2 * full
        db.close()

    def test_clean_checkpoint_writes_no_segment(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
        _fill_tables(db, n_tables=3, rows=50)
        db.checkpoint()
        segs_before = set(glob.glob(os.path.join(_chain(db), "seg-*")))
        tables = get_registry().counter("engine_checkpoint_tables_total")
        before = tables.value
        db.checkpoint()  # nothing changed: manifest-only link
        assert tables.value == before
        assert set(glob.glob(os.path.join(_chain(db), "seg-*"))) == segs_before
        db.close()

    def test_merge_marks_table_dirty(self, tmp_path):
        cfg = make_config(DurabilityMode.LOG, checkpoint_after_merge=False)
        db = Database(str(tmp_path / "db"), cfg)
        _fill_tables(db, n_tables=2, rows=60)
        db.checkpoint()
        tables = get_registry().counter("engine_checkpoint_tables_total")
        before = tables.value
        db.merge("t0")
        db.checkpoint()
        assert tables.value == before + 1  # t0 resnapshotted, t1 carried
        db.close()


class TestChainComposition:
    def test_chain_composes_across_restart(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG)
        db = Database(path, cfg)
        _fill_tables(db, n_tables=4, rows=30)
        db.checkpoint()
        db.bulk_insert("t1", [{"id": 500, "name": "a"}])
        db.checkpoint()
        db.bulk_insert("t2", [{"id": 600, "name": "b"}])
        db.checkpoint()
        db.crash()
        db = Database(path, cfg)
        # Restore composed snapshots from several segments; no replay.
        assert db.last_recovery.log_records_replayed == 0
        assert db.last_recovery.checkpoint_bytes > 0
        assert db.query("t0").count == 30
        assert db.query("t1").count == 31
        assert db.query("t2").count == 31
        assert db.query("t1", Eq("id", 500)).count == 1
        db.close()

    def test_clean_tables_stay_clean_after_restart(self, tmp_path):
        """A table untouched since its segment is not rewritten by the
        first post-restart checkpoint."""
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG)
        db = Database(path, cfg)
        _fill_tables(db, n_tables=3, rows=40)
        db.checkpoint()
        db = db.restart()
        tables = get_registry().counter("engine_checkpoint_tables_total")
        before = tables.value
        db.insert("t0", {"id": 999, "name": "post"})
        db.checkpoint()
        assert tables.value == before + 1  # t0 only; t1, t2 carried
        db.close()

    def test_dropped_table_leaves_the_chain(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG)
        db = Database(path, cfg)
        _fill_tables(db, n_tables=3, rows=20)
        db.checkpoint()
        db.drop_table("t1")
        db.checkpoint()
        db.crash()
        db = Database(path, cfg)
        assert sorted(db.table_names) == ["t0", "t2"]
        db.close()


class TestManifestCrashSafety:
    def test_torn_manifest_falls_back_to_previous_link(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG)
        db = Database(path, cfg)
        _fill_tables(db, n_tables=3, rows=40)
        db.checkpoint()
        db.bulk_insert("t1", [{"id": 500 + i, "name": "x"} for i in range(8)])
        db.checkpoint()
        db.crash()
        chain = _chain(db)
        manifests = sorted(glob.glob(os.path.join(chain, "manifest-*")))
        assert len(manifests) == 2
        # Tear the newest manifest mid-write.
        with open(manifests[-1], "r+b") as f:
            f.truncate(os.path.getsize(manifests[-1]) // 2)
        db = Database(path, cfg)
        # Fell back to the older manifest; the lost tail replays instead.
        assert db.last_recovery.log_records_replayed > 0
        assert db.query("t1").count == 48
        db.close()

    def test_garbage_manifest_falls_back(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG)
        db = Database(path, cfg)
        _fill_tables(db, n_tables=2, rows=30)
        db.checkpoint()
        db.insert("t0", {"id": 999, "name": "tail"})
        db.checkpoint()
        db.crash()
        manifests = sorted(glob.glob(os.path.join(_chain(db), "manifest-*")))
        with open(manifests[-1], "r+b") as f:
            f.write(b"\xde\xad\xbe\xef" * 8)
        db = Database(path, cfg)
        assert db.query("t0").count == 31
        assert db.query("t1").count == 30
        db.close()

    def test_gc_keeps_two_manifests_and_referenced_segments(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
        _fill_tables(db, n_tables=2, rows=20)
        for i in range(6):
            db.insert("t0", {"id": 1000 + i, "name": "x"})
            db.checkpoint()
        chain = _chain(db)
        manifests = glob.glob(os.path.join(chain, "manifest-*"))
        assert len(manifests) <= 2
        # Every surviving segment is referenced by a surviving manifest.
        from repro.wal.checkpoint import CheckpointChain

        state = CheckpointChain(chain).state()
        referenced = {
            f"seg-{seq:08d}.ckpt" for seq in state.mapping.values()
        }
        on_disk = {
            os.path.basename(p)
            for p in glob.glob(os.path.join(chain, "seg-*"))
        }
        assert referenced <= on_disk
        # GC keeps at most the segments the two manifests reference.
        assert len(on_disk) <= len(referenced) + 2
        db.close()


class TestCheckpointScheduling:
    def test_daemon_checkpoints_on_log_bytes(self, tmp_path):
        cfg = make_config(
            DurabilityMode.LOG,
            checkpoint_log_bytes=4096,
            maintenance_interval_s=0.02,
        )
        db = Database(str(tmp_path / "db"), cfg)
        assert db._maintenance.running
        db.create_table("t", ITEMS)
        counter = get_registry().counter("maintenance_checkpoints_total")
        before = counter.value
        for i in range(300):
            db.insert("t", {"id": i, "name": f"payload-{i:04d}"})
        assert db._maintenance.wait_idle(timeout=10.0)
        assert counter.value > before
        assert db._driver.log_bytes_since_checkpoint < 4096
        db.close()

    def test_daemon_checkpoints_on_replay_budget(self, tmp_path):
        cfg = make_config(
            DurabilityMode.LOG,
            checkpoint_max_replay_s=1e-9,  # any pending byte busts it
            maintenance_interval_s=0.02,
        )
        db = Database(str(tmp_path / "db"), cfg)
        db.create_table("t", ITEMS)
        counter = get_registry().counter("maintenance_checkpoints_total")
        before = counter.value
        db.insert("t", {"id": 1, "name": "a"})
        deadline = time.monotonic() + 10.0
        while counter.value == before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert counter.value > before
        db.close()

    def test_daemon_off_without_thresholds(self, tmp_path):
        db = Database(
            str(tmp_path / "db"), make_config(DurabilityMode.LOG)
        )
        assert not db._maintenance._checkpoint_enabled
        db.close()

    def test_scheduled_checkpoint_bounds_restart(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(
            DurabilityMode.LOG,
            checkpoint_log_bytes=2048,
            maintenance_interval_s=0.02,
        )
        db = Database(path, cfg)
        db.create_table("t", ITEMS)
        for i in range(200):
            db.insert("t", {"id": i, "name": "x"})
        assert db._maintenance.wait_idle(timeout=10.0)
        db.crash()
        db = Database(path, cfg)
        assert db.query("t").count == 200
        # The chain bounded replay to the post-checkpoint tail.
        assert db.last_recovery.log_records_replayed < 100
        assert db.last_recovery.checkpoint_bytes > 0
        db.close()
