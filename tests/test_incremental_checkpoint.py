"""Incremental checkpoint chain: dirty tracking, composition, fallback.

A checkpoint publishes one link of a chain under ``<db>/checkpoints/``:
a segment holding only the tables that changed since their last
snapshot, plus a manifest mapping every live table to the segment that
holds its newest snapshot. These tests pin the cost model (clean tables
are never rewritten), chain composition across restarts, torn-manifest
fallback, garbage collection, the maintenance daemon's checkpoint on
the replay budget, and checkpoints taken beside committing writers.
"""

import glob
import os
import threading
import time

import pytest

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
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
        _fill_tables(db, n_tables=2, rows=60)
        db.checkpoint()
        tables = get_registry().counter("engine_checkpoint_tables_total")
        before = tables.value
        db.merge("t0")  # and the checkpoint after it
        assert tables.value == before + 1  # t0 resnapshotted, t1 carried
        db.checkpoint()
        assert tables.value == before + 1
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
    def test_daemon_checkpoints_on_replay_budget(self, tmp_path):
        cfg = make_config(
            DurabilityMode.LOG,
            checkpoint_max_replay_s=1e-9,  # any pending byte busts it
        )
        db = Database(str(tmp_path / "db"), cfg)
        assert db._maintenance.running
        db.create_table("t", ITEMS)
        counter = get_registry().counter("maintenance_checkpoints_total")
        before = counter.value
        db.insert("t", {"id": 1, "name": "a"})
        deadline = time.monotonic() + 10.0
        while counter.value == before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert counter.value > before
        db.close()

    def test_daemon_checkpoints_beside_an_open_transaction(self, tmp_path):
        """The budget checkpoint does not wait for an open transaction: it
        runs while the holder stays open, and no attempt fails."""
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, checkpoint_max_replay_s=1e-9)
        db = Database(path, cfg)
        db.create_table("t", ITEMS)
        registry = get_registry()
        failures = registry.counter("maintenance_checkpoint_failures_total")
        checkpoints = registry.counter("maintenance_checkpoints_total")
        holder = db.begin()
        holder.insert("t", {"id": 0, "name": "held"})
        failed, done = failures.value, checkpoints.value
        db.insert("t", {"id": 1, "name": "a"})
        assert db._maintenance.wait_idle(timeout=10.0)
        assert checkpoints.value > done
        assert failures.value == failed
        assert db._driver.log_bytes_since_checkpoint == 0
        holder.commit()
        assert db._maintenance.wait_idle(timeout=10.0)
        assert db._driver.log_bytes_since_checkpoint == 0
        db.crash()
        db = Database(path, make_config(DurabilityMode.LOG))
        assert sorted(db.query("t").column("id")) == [0, 1]
        assert db.last_recovery.log_records_replayed == 0
        assert db.verify() == []
        db.close()

    def test_a_writer_that_never_goes_idle_keeps_replay_bounded(
        self, tmp_path
    ):
        """One transaction is open at every instant: the next begins and
        writes before the last commits. The daemon still checkpoints, so
        the log a restart replays stays within about one link's worth of
        commits instead of growing with the run."""
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, checkpoint_max_replay_s=1e-9)
        db = Database(path, cfg)
        db.create_table("t", ITEMS)
        checkpoints = get_registry().counter("maintenance_checkpoints_total")
        before = checkpoints.value
        commits = 300
        pending: list[int] = []

        def write() -> None:
            txn = db.begin()
            txn.insert("t", {"id": 0, "name": "w"})
            for i in range(1, commits + 1):
                following = db.begin()
                following.insert("t", {"id": i, "name": "w"})
                txn.commit()
                pending.append(db._driver.log_bytes_since_checkpoint)
                txn = following
                time.sleep(0.001)  # a steady writer, not a burst

        writer = threading.Thread(target=write)
        writer.start()
        writer.join(60.0)
        assert not writer.is_alive()
        assert len(db._manager.active) == 1
        assert checkpoints.value - before >= 3
        per_commit = db._driver.wal.lsn / commits
        # Replay never covered more than a few dozen commits; with no
        # checkpoint it would cover every commit of the run.
        assert max(pending) < 0.25 * commits * per_commit
        assert db._maintenance.wait_idle(timeout=10.0)
        assert db._driver.log_bytes_since_checkpoint == 0
        db.crash()
        db = Database(path, make_config(DurabilityMode.LOG))
        assert sorted(db.query("t").column("id")) == list(range(commits))
        assert db.last_recovery.log_records_replayed == 0
        assert db.verify() == []
        db.close()

    def test_daemon_off_without_thresholds(self, tmp_path):
        db = Database(
            str(tmp_path / "db"), make_config(DurabilityMode.LOG)
        )
        assert not db._maintenance.enabled
        db.close()

    def test_scheduled_checkpoint_bounds_restart(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, checkpoint_max_replay_s=1e-9)
        db = Database(path, cfg)
        db.create_table("t", ITEMS)
        for i in range(200):
            db.insert("t", {"id": i, "name": "x"})
        assert db._maintenance.wait_idle(timeout=10.0)
        db.crash()
        db = Database(path, cfg)
        assert sorted(db.query("t").column("id")) == list(range(200))
        # The chain bounded replay to the post-checkpoint tail.
        assert db.last_recovery.log_records_replayed < 100
        assert db.last_recovery.checkpoint_bytes > 0
        db.close()


class TestCheckpointBesideWriters:
    """A checkpoint does not quiesce: commits may land while it runs."""

    @pytest.mark.parametrize("outcome", ["commit", "abort", "open"])
    def test_a_checkpoint_beside_an_open_transaction(self, tmp_path, outcome):
        """The link is taken while a transaction that inserted and updated
        is open; it writes more after the link, then commits, aborts, or
        is still open at the crash. Its rows sit in the link uncommitted,
        as after a crash, and the log past the link's LSN holds its group
        whole or not at all."""
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG)
        db = Database(path, cfg)
        db.create_table("t", ITEMS)
        db.bulk_insert("t", [{"id": i, "name": "a"} for i in range(10)])
        model = {i: "a" for i in range(10)}
        txn = db.begin()
        txn.insert("t", {"id": 100, "name": "new"})
        txn.update("t", db.query("t", Eq("id", 3)).refs()[0], {"name": "b"})
        db.checkpoint()
        txn.insert("t", {"id": 101, "name": "late"})
        db.insert("t", {"id": 200, "name": "beside"})
        model[200] = "beside"
        if outcome == "commit":
            txn.commit()
            model.update({100: "new", 101: "late", 3: "b"})
        elif outcome == "abort":
            txn.abort()
        for _ in range(2):
            db.crash()
            db = Database(path, cfg)
            result = db.query("t")
            assert dict(zip(result.column("id"), result.column("name"))) == model
            assert db.verify() == []
            db.checkpoint()
        db.close()

    def test_a_commit_during_the_snapshot_survives_the_next_link(
        self, tmp_path, monkeypatch
    ):
        """The commit lands after the table's snapshot: the link records
        the table's token from before it, so the next link rewrites the
        table instead of carrying the stale segment past the commit."""
        from repro.core import durability

        path = str(tmp_path / "db")
        db = Database(path, make_config(DurabilityMode.LOG))
        db.create_table("t", ITEMS)
        db.insert("t", {"id": 0, "name": "before"})
        real = durability.snapshot_table

        def snapshot_then_commit(table, *args):
            snapshot = real(table, *args)
            monkeypatch.setattr(durability, "snapshot_table", real)
            db.insert("t", {"id": 1, "name": "beside"})
            return snapshot

        monkeypatch.setattr(durability, "snapshot_table", snapshot_then_commit)
        db.checkpoint()
        db.checkpoint()
        db.crash()
        db = Database(path, make_config(DurabilityMode.LOG))
        assert sorted(db.query("t").column("id")) == [0, 1]
        assert db.verify() == []
        db.close()

    def test_a_commit_during_the_token_read_survives_the_next_link(
        self, tmp_path, monkeypatch
    ):
        """The commit lands while the link reads change tokens: it is in
        the token, so it must be in the snapshot too."""
        from repro.storage.table import Table

        path = str(tmp_path / "db")
        db = Database(path, make_config(DurabilityMode.LOG))
        db.create_table("t", ITEMS)
        db.insert("t", {"id": 0, "name": "before"})
        real = Table.change_token

        def commit_then_token(table):
            monkeypatch.setattr(Table, "change_token", real)
            db.insert("t", {"id": 1, "name": "beside"})
            return real(table)

        monkeypatch.setattr(Table, "change_token", commit_then_token)
        db.checkpoint()
        db.checkpoint()
        db.crash()
        db = Database(path, make_config(DurabilityMode.LOG))
        assert sorted(db.query("t").column("id")) == [0, 1]
        db.close()

    def test_a_commit_applied_after_the_lsn_read_is_not_skipped(
        self, tmp_path, monkeypatch
    ):
        """A writer's commit group reaches the log before its commit ids
        are stamped into the rows. The link's LSN must not pass a group
        whose stamps its snapshots may lack: that commit would be
        neither in the snapshot nor in the replayed tail."""
        from repro.storage.table import Table
        from repro.txn import manager

        path = str(tmp_path / "db")
        db = Database(path, make_config(DurabilityMode.LOG))
        db.create_table("t", ITEMS)
        db.insert("t", {"id": 0, "name": "before"})
        logged = threading.Event()
        real_apply = manager.apply_operations

        def apply_late(*args, **kwargs):
            logged.set()
            time.sleep(0.3)  # the group is in the log, the rows unstamped
            real_apply(*args, **kwargs)

        def writer():
            with db.begin() as txn:
                txn.insert("t", {"id": 1, "name": "beside"})

        real_token = Table.change_token
        thread = threading.Thread(target=writer)

        def token_beside_a_commit(table):
            # The writer begins after the checkpoint's active check.
            monkeypatch.setattr(Table, "change_token", real_token)
            monkeypatch.setattr(manager, "apply_operations", apply_late)
            thread.start()
            assert logged.wait(10.0)
            return real_token(table)

        monkeypatch.setattr(Table, "change_token", token_beside_a_commit)
        db.checkpoint()
        thread.join()
        db.crash()
        db = Database(path, make_config(DurabilityMode.LOG))
        assert sorted(db.query("t").column("id")) == [0, 1]
        db.close()

    def test_a_commit_the_log_lost_stays_out_of_later_snapshots(
        self, tmp_path, monkeypatch
    ):
        """An async commit lands after the link's LSN and before its
        snapshot, and the crash loses its log group. Its rows must not
        surface once a later commit reuses its commit id."""
        from repro.core import durability

        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, group_commit_size=0)
        db = Database(path, cfg)
        db.create_table("t", ITEMS)
        db.insert("t", {"id": 0, "name": "before"})
        db._driver.wal.sync()
        real = durability.snapshot_table

        def commit_then_snapshot(table, *args):
            monkeypatch.setattr(durability, "snapshot_table", real)
            db.insert("t", {"id": 1, "name": "lost"})
            return real(table, *args)

        monkeypatch.setattr(durability, "snapshot_table", commit_then_snapshot)
        db.checkpoint()
        db.crash(survivor_fraction=0.0)
        db = Database(path, cfg)
        assert db.query("t").column("id") == [0]
        db.insert("t", {"id": 2, "name": "after"})
        assert sorted(db.query("t").column("id")) == [0, 2]
        assert db.verify() == []
        db.close()

    def test_a_table_created_during_the_checkpoint_survives(
        self, tmp_path, monkeypatch
    ):
        """A link lists exactly the tables it read, at an LSN past every
        create record below it: DDL waits for the link to finish."""
        from repro.storage.table import Table

        path = str(tmp_path / "db")
        db = Database(path, make_config(DurabilityMode.LOG))
        db.create_table("t", ITEMS)
        created = threading.Event()

        def create():
            db.create_table("u", ITEMS)
            created.set()
            db.insert("u", {"id": 7, "name": "new"})

        thread = threading.Thread(target=create)
        real = Table.change_token

        def create_then_token(table):
            monkeypatch.setattr(Table, "change_token", real)
            thread.start()
            created.wait(0.5)  # times out while DDL waits for the link
            return real(table)

        monkeypatch.setattr(Table, "change_token", create_then_token)
        db.checkpoint()
        thread.join()
        db.crash()
        db = Database(path, make_config(DurabilityMode.LOG))
        assert db.table_names == ["t", "u"]
        assert db.query("u").column("id") == [7]
        db.close()

    def test_a_commit_during_column_codes_leaves_no_ragged_delta(
        self, tmp_path, monkeypatch
    ):
        from repro.storage.delta import DeltaPartition
        from repro.wal.checkpoint import snapshot_table

        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
        db.create_table("t", ITEMS)
        db.insert_many("t", [{"id": i, "name": f"n{i}"} for i in range(5)])
        real = DeltaPartition.column_codes

        def commit_then_read(delta, col):
            monkeypatch.setattr(DeltaPartition, "column_codes", real)
            db.insert("t", {"id": 99, "name": "beside"})
            return real(delta, col)

        monkeypatch.setattr(DeltaPartition, "column_codes", commit_then_read)
        snapshot = snapshot_table(db.table("t"))
        rows = snapshot.delta_row_count
        assert rows == 5
        assert [len(c.codes) for c in snapshot.delta_columns] == [rows, rows]
        assert len(snapshot.delta_begin) == len(snapshot.delta_end) == rows
        db.close()
