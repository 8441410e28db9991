"""WAL shipping, followers, ack modes, and failover promotion."""

from __future__ import annotations

import errno
import os
import sys
import threading
import time

import pytest

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database
from repro.obs import MetricsRegistry, set_registry
from repro.query.predicate import Eq
from repro.replication import AckMode, Follower, WalShipper
from repro.storage.types import DataType

SCHEMA = {"id": DataType.INT64, "v": DataType.STRING}


@pytest.fixture
def registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


def _log_db(tmp_path, **overrides) -> Database:
    defaults = dict(mode=DurabilityMode.LOG, group_commit_size=1)
    defaults.update(overrides)
    return Database(str(tmp_path / "primary"), EngineConfig(**defaults))


def _rows(db_or_follower) -> dict:
    result = db_or_follower.query("t")
    return dict(zip(result.column("id"), result.column("v")))


def _replicate(tmp_path, db, ack_mode, followers=1):
    shipper = WalShipper(db, ack_mode=ack_mode, ack_timeout_s=20.0)
    replicas = [
        shipper.add_follower(
            Follower(str(tmp_path / f"replica{i}"), name=f"r{i}")
        )
        for i in range(followers)
    ]
    shipper.start()
    return shipper, replicas


class TestAckModes:
    def test_required_acks_ladder(self):
        assert AckMode.ASYNC.required_acks(3) == 0
        assert AckMode.SEMI_SYNC.required_acks(0) == 0
        assert AckMode.SEMI_SYNC.required_acks(3) == 1
        assert AckMode.QUORUM.required_acks(1) == 1
        assert AckMode.QUORUM.required_acks(2) == 2
        assert AckMode.QUORUM.required_acks(3) == 2
        assert AckMode.QUORUM.required_acks(5) == 3

    def test_string_coercion(self, tmp_path):
        db = _log_db(tmp_path)
        try:
            shipper = WalShipper(db, ack_mode="semi_sync")
            assert shipper.ack_mode is AckMode.SEMI_SYNC
            shipper.stop()
        finally:
            db.close()


class TestSemiSync:
    def test_acked_commits_survive_primary_loss(self, tmp_path):
        """The semi-sync contract: once an autocommit insert returns,
        the follower already applied it — killing the primary without
        any catch-up sync must lose nothing acknowledged."""
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        shipper, (replica,) = _replicate(
            tmp_path, db, AckMode.SEMI_SYNC
        )
        expected = {}
        for i in range(50):
            db.insert("t", {"id": i, "v": f"v{i}"})
            expected[i] = f"v{i}"
        shipper.stop()  # no sync_followers: acked must already be there
        db.crash(seed=1)
        promoted = replica.promote()
        try:
            assert _rows(promoted) == expected
        finally:
            promoted.close()
            replica.close()

    def test_update_delete_merge_replicate(self, tmp_path, registry):
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        shipper, (replica,) = _replicate(
            tmp_path, db, AckMode.SEMI_SYNC
        )
        for i in range(20):
            db.insert("t", {"id": i, "v": f"v{i}"})
        txn = db.begin()  # update + delete in one commit
        (ref3,) = txn.query("t", Eq("id", 3)).refs()
        txn.update("t", ref3, {"v": "patched"})
        (ref7,) = txn.query("t", Eq("id", 7)).refs()
        txn.delete("t", ref7)
        txn.commit()
        db.merge("t")
        db.bulk_insert("t", [{"id": 100 + i, "v": f"b{i}"} for i in range(5)])
        assert shipper.sync_followers(timeout_s=10.0)
        expected = _rows(db)
        assert expected[3] == "patched"
        assert 7 not in expected
        assert len(expected) == 24
        assert _rows(replica) == expected
        shipper.close()
        db.close()


class TestAsync:
    def test_follower_never_ahead_of_durable_frontier(self, tmp_path):
        """Async shipping from a WAL primary trails the fsync frontier:
        with fully asynchronous local commits nothing is durable, so
        nothing ships — until an explicit sync releases the backlog."""
        db = _log_db(tmp_path, group_commit_size=0)
        db.create_table("t", SCHEMA)
        # DDL syncs, so the follower can bootstrap and see the table.
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.ASYNC)
        for i in range(20):
            db.insert("t", {"id": i, "v": f"v{i}"})
        wal = db._driver.wal
        assert wal.commits_acked > wal.commits_durable  # the async gap
        durable_before = wal.durable_lsn
        assert not replica.wait_for(wal.lsn, timeout_s=0.2)
        assert replica.applied_lsn <= durable_before
        wal.sync()
        assert shipper.sync_followers(timeout_s=10.0)
        assert _rows(replica) == {i: f"v{i}" for i in range(20)}
        shipper.close()
        db.close()

    def test_acked_durable_gap_across_crash_and_recovery(self, tmp_path):
        """The async contract end to end: acked-but-not-durable commits
        may die with the primary, and the follower — held behind the
        durable frontier — agrees byte-for-byte with what the primary
        itself recovers."""
        db = _log_db(tmp_path, group_commit_size=0)
        db.create_table("t", SCHEMA)
        for i in range(10):
            db.insert("t", {"id": i, "v": f"v{i}"})
        db._driver.wal.sync()  # first ten rows durable
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.ASYNC)
        for i in range(10, 25):
            db.insert("t", {"id": i, "v": f"v{i}"})  # acked, not durable
        # Catch up to the durable frontier — the shipper withholds the
        # acked-but-unsynced suffix from the follower by design.
        assert replica.wait_for(db._driver.wal.durable_lsn, timeout_s=10.0)
        shipper.stop()
        db.crash(seed=2)
        recovered = Database(
            str(tmp_path / "primary"),
            EngineConfig(mode=DurabilityMode.LOG, group_commit_size=0),
        )
        survivors = _rows(recovered)
        assert survivors == {i: f"v{i}" for i in range(10)}  # gap lost
        promoted = replica.promote()
        try:
            assert _rows(promoted) == survivors  # replica agrees
        finally:
            promoted.close()
            replica.close()
            recovered.close()


class TestQuorum:
    def test_majority_of_two_means_both(self, tmp_path):
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        shipper, replicas = _replicate(
            tmp_path, db, AckMode.QUORUM, followers=2
        )
        for i in range(15):
            db.insert("t", {"id": i, "v": f"v{i}"})
        shipper.stop()
        db.crash(seed=1)
        expected = {i: f"v{i}" for i in range(15)}
        # Both followers hold every acked commit — either can take over.
        for replica in replicas:
            promoted = replica.promote()
            try:
                assert _rows(promoted) == expected
            finally:
                promoted.close()
                replica.close()


class TestBootstrap:
    def test_log_primary_with_checkpoint_resumes_mid_log(self, tmp_path):
        """A checkpointed primary ships only the post-checkpoint suffix;
        the follower rebuilds the prefix from the checkpoint copy."""
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        for i in range(10):
            db.insert("t", {"id": i, "v": f"v{i}"})
        db.checkpoint()
        for i in range(10, 14):
            db.insert("t", {"id": i, "v": f"v{i}"})
        shipper, (replica,) = _replicate(
            tmp_path, db, AckMode.SEMI_SYNC
        )
        assert shipper.start_lsn > 0
        db.insert("t", {"id": 99, "v": "tail"})
        assert shipper.sync_followers(timeout_s=10.0)
        expected = {i: f"v{i}" for i in range(14)}
        expected[99] = "tail"
        assert _rows(replica) == expected
        shipper.close()
        db.close()

    def test_nvm_primary_ships_through_ship_log(self, tmp_path):
        """An NVM primary has no WAL: the shipper snapshots the pool
        into a ship checkpoint and mirrors every later operation —
        DML, DDL, bulk loads, merges — into a transport log."""
        db = Database(
            str(tmp_path / "primary"),
            EngineConfig(mode=DurabilityMode.NVM),
        )
        db.create_table("t", SCHEMA)
        for i in range(8):
            db.insert("t", {"id": i, "v": f"v{i}"})
        shipper, (replica,) = _replicate(
            tmp_path, db, AckMode.SEMI_SYNC
        )
        assert shipper.start_lsn == 0
        db.insert("t", {"id": 8, "v": "v8"})
        db.create_table("u", SCHEMA)  # post-attach DDL must replicate
        db.insert("u", {"id": 1, "v": "other"})
        db.merge("t")
        db.bulk_insert("t", [{"id": 20 + i, "v": f"b{i}"} for i in range(4)])
        assert shipper.sync_followers(timeout_s=10.0)
        # The load reached the ship log through the manager's WAL hook.
        assert {20, 21, 22, 23} <= set(_rows(replica))
        assert _rows(replica) == _rows(db)
        assert replica.query("u").count == 1
        assert sorted(replica.table_names()) == ["t", "u"]
        shipper.close()
        db.close()

    def test_bootstrap_from_two_link_chain_with_carried_table(self, tmp_path):
        """The pinned link references segments of *different* ages: the
        clean table's comes from the first checkpoint, by reference."""
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        db.create_table("clean", SCHEMA)
        for i in range(6):
            db.insert("t", {"id": i, "v": f"v{i}"})
        db.insert("clean", {"id": 1, "v": "carried"})
        db.checkpoint()
        db.insert("t", {"id": 6, "v": "v6"})
        db.checkpoint()  # rewrites t only; clean is carried
        db.insert("t", {"id": 7, "v": "v7"})  # log tail past the chain
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        segments = sorted(
            name
            for name in os.listdir(tmp_path / "replica0" / "checkpoints")
            if name.startswith("seg-")
        )
        assert len(segments) == 2
        db.insert("t", {"id": 8, "v": "v8"})
        assert shipper.sync_followers(timeout_s=10.0)
        assert _rows(replica) == {i: f"v{i}" for i in range(9)}
        assert replica.query("clean").column("v") == ["carried"]
        shipper.close()
        db.close()

    def test_checkpoint_and_gc_between_attach_and_add_follower(self, tmp_path):
        """The shipper pinned its link at attach: later checkpoints may
        collect every file of it from the primary's own chain."""
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        for i in range(5):
            db.insert("t", {"id": i, "v": f"v{i}"})
        db.checkpoint()
        shipper = WalShipper(db, ack_mode=AckMode.SEMI_SYNC, ack_timeout_s=20.0)
        pinned = set(os.listdir(tmp_path / "primary" / "ship"))
        for i in range(5, 9):
            db.insert("t", {"id": i, "v": f"v{i}"})
            db.checkpoint()
        assert not pinned & set(os.listdir(tmp_path / "primary" / "checkpoints"))
        replica = shipper.add_follower(Follower(str(tmp_path / "replica0")))
        shipper.start()
        db.insert("t", {"id": 9, "v": "v9"})
        assert shipper.sync_followers(timeout_s=10.0)
        assert _rows(replica) == {i: f"v{i}" for i in range(10)}
        shipper.close()
        db.close()

    def test_follower_dir_has_no_snapshot_file_outside_the_chain(self, tmp_path):
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        db.insert("t", {"id": 1, "v": "a"})
        db.checkpoint()
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.ASYNC)
        assert sorted(os.listdir(tmp_path / "replica0")) == [
            "checkpoints",
            "wal.log",
        ]
        shipper.close()
        db.close()

    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_log_attach_beside_an_open_transaction(self, tmp_path, checkpointed):
        """A LOG attach does not wait: the open transaction's records are
        staged, so its commit ships past the pinned link as one group."""
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        db.insert("t", {"id": 0, "v": "before"})
        txn = db.begin()
        txn.insert("t", {"id": 1, "v": "in-flight"})
        txn.update("t", db.query("t", Eq("id", 0)).refs()[0], {"v": "moved"})
        if checkpointed:
            db.checkpoint()
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        assert (shipper.start_lsn > 0) is checkpointed
        assert shipper.sync_followers(timeout_s=10.0)
        assert _rows(replica) == {0: "before"}
        txn.insert("t", {"id": 2, "v": "after-attach"})
        txn.commit()
        assert shipper.sync_followers(timeout_s=10.0)
        assert _rows(replica) == _rows(db) == {
            0: "moved", 1: "in-flight", 2: "after-attach"
        }
        shipper.close()
        db.close()

    @pytest.mark.parametrize("ack_mode", [AckMode.ASYNC, AckMode.SEMI_SYNC])
    @pytest.mark.parametrize("outcome", ["commit", "abort", "open"])
    def test_nvm_attach_beside_an_open_transaction(
        self, tmp_path, outcome, ack_mode
    ):
        """The attach stages what an open transaction did before the ship
        log existed: its commit ships it whole, its abort ships nothing,
        and with it open at the crash the promoted follower equals the
        recovered primary."""
        path = str(tmp_path / "primary")
        db = Database(path, EngineConfig(mode=DurabilityMode.NVM))
        db.create_table("t", SCHEMA)
        db.insert_many("t", [{"id": i, "v": f"v{i}"} for i in range(4)])
        txn = db.begin()
        txn.insert_many("t", [{"id": 10 + i, "v": f"open{i}"} for i in range(3)])
        txn.update("t", db.query("t", Eq("id", 0)).refs()[0], {"v": "moved"})
        txn.delete("t", db.query("t", Eq("id", 1)).refs()[0])
        shipper, (replica,) = _replicate(tmp_path, db, ack_mode)
        db.insert("t", {"id": 4, "v": "beside"})
        txn.insert("t", {"id": 13, "v": "after-attach"})
        if outcome == "commit":
            txn.commit()
        elif outcome == "abort":
            txn.abort()
        db.insert("t", {"id": 5, "v": "v5"})
        assert shipper.sync_followers(timeout_s=10.0)
        expected = {0: "v0", 1: "v1", 2: "v2", 3: "v3", 4: "beside", 5: "v5"}
        if outcome == "commit":
            del expected[1]
            expected.update({0: "moved", 10: "open0", 11: "open1"})
            expected.update({12: "open2", 13: "after-attach"})
        shipper.stop()
        if outcome == "open":
            db.crash(seed=5)
            db = Database(path, EngineConfig(mode=DurabilityMode.NVM))
        promoted = replica.promote(
            EngineConfig(mode=DurabilityMode.LOG, group_commit_size=1)
        )
        try:
            assert _rows(promoted) == _rows(db) == expected
            assert promoted.verify() == []
        finally:
            promoted.close()
            replica.close()
            db.close()

    def test_nvm_attach_racing_writers(self, tmp_path):
        """Four writers, each holding a transaction open across yields,
        keep inserting and updating while the ship log is attached 22
        times; at a 10 µs switch interval the follower of the last attach
        still ends equal to the primary."""
        db = Database(
            str(tmp_path / "primary"), EngineConfig(mode=DurabilityMode.NVM)
        )
        db.create_table("t", SCHEMA)
        db.insert_many("t", [{"id": w, "v": "base"} for w in range(4)])
        stop, errors = threading.Event(), []

        def writer(w: int) -> None:
            n = 0
            try:
                while not stop.is_set():
                    with db.begin() as txn:
                        txn.insert("t", {"id": 100 * (w + 1) + n, "v": "new"})
                        time.sleep(0)
                        ref = txn.query("t", Eq("id", w)).refs()[0]
                        txn.update("t", ref, {"v": f"w{w}-{n}"})
                    n += 1
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.05)
            first = WalShipper(db, ack_mode=AckMode.ASYNC)
            for _ in range(20):
                time.sleep(0.002)
                WalShipper(db, ack_mode=AckMode.ASYNC)
            shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
            time.sleep(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert first._wal._file.closed
        assert shipper.sync_followers(timeout_s=20.0)
        assert len(_rows(db)) > 8
        assert _rows(replica) == _rows(db)
        shipper.close()
        db.close()

    def test_nvm_commit_during_the_attach_snapshot_ships(
        self, tmp_path, monkeypatch
    ):
        """A commit that lands while the attach snapshots the pool is past
        the snapshot's ``last_cid``: it reaches the follower through the
        ship log, which is attached before the snapshot is taken."""
        from repro.replication import ship

        db = Database(
            str(tmp_path / "primary"), EngineConfig(mode=DurabilityMode.NVM)
        )
        db.create_table("t", SCHEMA)
        db.insert("t", {"id": 1, "v": "v1"})
        real = ship.snapshot_table

        def snapshot_then_commit(table, *args):
            snapshot = real(table, *args)
            monkeypatch.setattr(ship, "snapshot_table", real)
            db.insert("t", {"id": 2, "v": "beside"})
            return snapshot

        monkeypatch.setattr(ship, "snapshot_table", snapshot_then_commit)
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        db.insert("t", {"id": 3, "v": "v3"})
        assert shipper.sync_followers(timeout_s=10.0)
        assert _rows(db) == {1: "v1", 2: "beside", 3: "v3"}
        assert _rows(replica) == _rows(db)
        shipper.close()
        db.close()

    def test_none_mode_primary_rejected(self, tmp_path):
        db = Database(
            str(tmp_path / "primary"),
            EngineConfig(mode=DurabilityMode.NONE),
        )
        with pytest.raises(RuntimeError, match="cannot ship"):
            WalShipper(db)
        db.close()


class TestShipLogLifecycle:
    """An NVM primary mirrors into its ship log exactly while a shipper
    is attached: never before, never after, and never into two."""

    def _nvm_db(self, tmp_path) -> Database:
        db = Database(
            str(tmp_path / "primary"), EngineConfig(mode=DurabilityMode.NVM)
        )
        db.create_table("t", SCHEMA)
        db.insert("t", {"id": 0, "v": "v0"})
        return db

    def _unwired(self, db) -> bool:
        return db._driver.wal is None and db._manager._wal is None

    def test_stop_unwires_and_closes_the_ship_log(self, tmp_path):
        db = self._nvm_db(tmp_path)
        shipper, _ = _replicate(tmp_path, db, AckMode.ASYNC)
        wal = shipper._wal
        shipper.close()
        assert self._unwired(db) and wal._file.closed
        size = os.path.getsize(db._driver.ship_log_path)
        db.insert_many("t", [{"id": i, "v": "x"} for i in range(1, 200)])
        assert os.path.getsize(db._driver.ship_log_path) == size
        db.close()

    def test_a_failed_attach_leaves_no_ship_log_wired(
        self, tmp_path, monkeypatch
    ):
        from repro.replication import ship

        db = self._nvm_db(tmp_path)

        def no_space(*args):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(ship, "snapshot_table", no_space)
        with pytest.raises(OSError):
            WalShipper(db, ack_mode=AckMode.SEMI_SYNC)
        assert self._unwired(db)
        monkeypatch.undo()
        txn = db.begin()
        txn.insert("t", {"id": 1, "v": "open"})
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        txn.commit()
        assert shipper.sync_followers(timeout_s=10.0)
        assert _rows(replica) == _rows(db) == {0: "v0", 1: "open"}
        shipper.close()
        db.close()

    def test_a_reattach_closes_the_previous_ship_log(self, tmp_path):
        db = self._nvm_db(tmp_path)
        first = WalShipper(db, ack_mode=AckMode.ASYNC)
        db.insert("t", {"id": 1, "v": "v1"})
        second, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        assert first._wal._file.closed
        assert db._driver.wal is second._wal is db._manager._wal
        first.close()  # no longer its ship log: leaves it wired
        assert db._driver.wal is second._wal
        db.insert("t", {"id": 2, "v": "v2"})
        assert second.sync_followers(timeout_s=10.0)
        assert _rows(replica) == _rows(db) == {0: "v0", 1: "v1", 2: "v2"}
        second.close()
        db.close()

    def test_a_reattach_restages_an_open_transaction(self, tmp_path):
        """What the first ship log staged goes with it: the second attach
        stages the open transaction again from its operations."""
        db = self._nvm_db(tmp_path)
        first = WalShipper(db, ack_mode=AckMode.ASYNC)
        txn = db.begin()
        txn.insert("t", {"id": 1, "v": "open"})
        second, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        txn.update("t", db.query("t", Eq("id", 0)).refs()[0], {"v": "moved"})
        txn.commit()
        first.close()
        assert second.sync_followers(timeout_s=10.0)
        assert _rows(replica) == _rows(db) == {0: "moved", 1: "open"}
        second.close()
        db.close()


class TestPromotion:
    def test_promoted_replica_is_writable_and_restartable(self, tmp_path):
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        for i in range(12):
            db.insert("t", {"id": i, "v": f"v{i}"})
        shipper, (replica,) = _replicate(
            tmp_path, db, AckMode.SEMI_SYNC
        )
        db.insert("t", {"id": 12, "v": "v12"})
        shipper.stop()
        db.crash(seed=1)
        promoted = replica.promote(
            EngineConfig(mode=DurabilityMode.LOG, group_commit_size=1)
        )
        promoted.insert("t", {"id": 1000, "v": "post-failover"})
        promoted = promoted.restart()
        try:
            rows = _rows(promoted)
            assert rows[1000] == "post-failover"
            assert len(rows) == 14
        finally:
            promoted.close()
            replica.close()


    def test_nvm_primary_promote_write_crash_restart(self, tmp_path):
        """An NVM primary's attach-time snapshot is a one-link chain;
        the promoted LOG engine checkpoints on top of it and survives
        its own crash."""
        db = Database(
            str(tmp_path / "primary"), EngineConfig(mode=DurabilityMode.NVM)
        )
        db.create_table("t", SCHEMA)
        for i in range(8):
            db.insert("t", {"id": i, "v": f"v{i}"})
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        db.insert("t", {"id": 8, "v": "v8"})
        shipper.stop()
        db.crash(seed=3)
        cfg = EngineConfig(mode=DurabilityMode.LOG, group_commit_size=1)
        promoted = replica.promote(cfg)
        try:
            assert promoted.last_recovery.checkpoint_bytes > 0
            promoted.insert("t", {"id": 100, "v": "post-failover"})
            promoted.checkpoint()
            promoted.insert("t", {"id": 101, "v": "tail"})
            promoted.crash(seed=4)
            promoted = Database(promoted.path, cfg)
            expected = {i: f"v{i}" for i in range(9)}
            expected.update({100: "post-failover", 101: "tail"})
            assert _rows(promoted) == expected
            assert promoted.last_recovery.log_records_replayed == 2
        finally:
            promoted.close()
            replica.close()

    @pytest.mark.parametrize(
        "mode", [DurabilityMode.LOG, DurabilityMode.NVM], ids=lambda m: m.value
    )
    def test_a_promoted_follower_keeps_the_primarys_indexes(self, tmp_path, mode):
        """After a failover an indexed read must not become a full scan."""
        db = Database(
            str(tmp_path / "primary"), EngineConfig(mode=mode, group_commit_size=1)
        )
        db.create_table("t", SCHEMA)
        db.create_index("t", "id")
        for i in range(8):
            db.insert("t", {"id": i, "v": f"v{i}"})
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        db.insert("t", {"id": 8, "v": "v8"})
        assert list(db.indexes_on("t")) == ["id"]
        shipper.stop()
        db.crash(seed=5)
        promoted = replica.promote(
            EngineConfig(mode=DurabilityMode.LOG, group_commit_size=1)
        )
        try:
            assert _rows(promoted) == {i: f"v{i}" for i in range(9)}
            assert list(promoted.indexes_on("t")) == ["id"]
        finally:
            promoted.close()
            replica.close()

    @pytest.mark.parametrize(
        "mode", [DurabilityMode.LOG, DurabilityMode.NVM], ids=lambda m: m.value
    )
    def test_an_index_declared_after_the_attach_is_kept(self, tmp_path, mode):
        """The declaration reaches the follower in the stream, not the
        attach snapshot, and the promoted engine probes with it."""
        db = Database(
            str(tmp_path / "primary"), EngineConfig(mode=mode, group_commit_size=1)
        )
        db.create_table("t", SCHEMA)
        db.create_table("u", SCHEMA)
        db.create_index("u", "v")
        for i in range(8):
            db.insert("t", {"id": i, "v": f"v{i}"})
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        db.create_index("t", "v")
        db.create_index("t", "id")
        db.insert("t", {"id": 8, "v": "v8"})
        shipper.stop()
        db.crash(seed=6)
        promoted = replica.promote(
            EngineConfig(mode=DurabilityMode.LOG, group_commit_size=1)
        )
        try:
            assert list(promoted.indexes_on("t")) == ["v", "id"]
            assert list(promoted.indexes_on("u")) == ["v"]
            assert promoted.query("t", Eq("id", 8)).rows() == [{"id": 8, "v": "v8"}]
        finally:
            promoted.close()
            replica.close()

    def test_promote_from_chain_then_crash_restart(self, tmp_path):
        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        for i in range(6):
            db.insert("t", {"id": i, "v": f"v{i}"})
        db.checkpoint()
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.SEMI_SYNC)
        db.insert("t", {"id": 6, "v": "v6"})
        shipper.stop()
        db.crash(seed=1)
        cfg = EngineConfig(mode=DurabilityMode.LOG, group_commit_size=1)
        promoted = replica.promote(cfg)
        try:
            assert promoted.last_recovery.checkpoint_bytes > 0
            assert promoted.last_recovery.log_records_replayed == 2
            promoted.insert("t", {"id": 7, "v": "v7"})
            promoted.crash(seed=2)
            promoted = Database(promoted.path, cfg)
            assert _rows(promoted) == {i: f"v{i}" for i in range(8)}
        finally:
            promoted.close()
            replica.close()


def _record_types(path: str) -> list[int]:
    from repro.wal.reader import LogScan

    return [payload[0] for payload, _ in LogScan(path, decode=False)]


@pytest.mark.parametrize(
    "mode", [DurabilityMode.LOG, DurabilityMode.NVM], ids=lambda m: m.value
)
def test_a_fixed_script_writes_one_record_per_step(tmp_path, mode):
    """Create, insert, index, merge, drop: the log (LOG) and the ship
    log (NVM) hold the same records, once each, in the script's order."""
    from repro.wal import records as r

    db = Database(str(tmp_path / "primary"), EngineConfig(mode=mode))
    shipper = WalShipper(db) if mode is DurabilityMode.NVM else None
    db.create_table("t", SCHEMA)
    db.insert_many("t", [{"id": i, "v": f"v{i}"} for i in range(10)])
    db.create_index("t", "id")
    db.merge("t")
    db.drop_table("t")
    if shipper is not None:
        shipper.close()
        path = db._driver.ship_log_path
    else:
        path = db._driver.log_path
    db.close()
    assert _record_types(path) == [
        r.TYPE_CREATE_TABLE,
        r.TYPE_INSERT_MANY,
        r.TYPE_COMMIT,
        r.TYPE_CREATE_INDEX,
        r.TYPE_MERGE,
        r.TYPE_DROP_TABLE,
    ]


class TestApplyLoop:
    def test_reads_never_see_a_cid_ahead_of_its_rows(self, tmp_path):
        """Sample the follower while batches apply: the row count at the
        published ``last_cid`` always matches what the primary had
        committed at that cid (one row per commit here)."""
        from repro.query.scan import scan

        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        base_cid = db.last_cid
        shipper, (replica,) = _replicate(tmp_path, db, AckMode.ASYNC)
        sampled = set()
        for i in range(400):
            db.insert("t", {"id": i, "v": "x"})
            if i % 5 == 0 and "t" in replica.table_names():
                cid = replica.last_cid
                table = replica._replayer.names["t"]
                assert scan(table, snapshot_cid=cid).count == cid - base_cid
                sampled.add(cid)
        assert len(sampled) > 3  # the apply loop really was mid-stream
        assert shipper.sync_followers(timeout_s=10.0)
        assert replica.query("t").count == 400
        assert replica.last_cid == db.last_cid
        shipper.close()
        db.close()

    def test_query_across_a_merge_in_the_same_batch(self, tmp_path, monkeypatch):
        """Deletes and the merge that folds their rows away arrive in one
        apply batch: a ``query`` issued right after the fold must already
        be pinned past the deletes (20 rows - 5 deleted, never 20 - 5
        folded - 0 visible-as-deleted)."""
        from repro.recovery import log_recovery
        from repro.wal.reader import LogScan

        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        db.bulk_insert("t", [{"id": i, "v": "x"} for i in range(20)])
        for i in range(5):
            with db.begin() as txn:
                txn.delete("t", db.query("t", Eq("id", i)).refs()[0])
        db.merge("t")
        db.close()

        replica = Follower(str(tmp_path / "replica"))
        replica.bootstrap(None, 0)
        seen = []
        real_merge = log_recovery.replay_merge

        def merge_then_query(*args):
            real_merge(*args)
            seen.append(replica.query("t").count)

        monkeypatch.setattr(log_recovery, "replay_merge", merge_then_query)
        log_path = str(tmp_path / "primary" / "wal.log")
        for payload, end_lsn in LogScan(log_path, decode=False):
            replica.enqueue(payload, end_lsn)  # all queued before the loop runs
        replica.start()
        assert replica.wait_for(end_lsn)
        assert seen == [15]
        assert replica.query("t").count == 15
        replica.close()


class TestObservability:
    def test_replication_metrics_emitted(self, tmp_path, registry):
        from repro.obs import get_registry

        db = _log_db(tmp_path)
        db.create_table("t", SCHEMA)
        shipper, (replica,) = _replicate(
            tmp_path, db, AckMode.SEMI_SYNC
        )
        for i in range(10):
            db.insert("t", {"id": i, "v": f"v{i}"})
        assert shipper.sync_followers(timeout_s=10.0)
        reg = get_registry()
        assert reg.counter("replication_records_shipped_total").value > 0
        assert reg.counter("follower_applies_total", follower="r0").value > 0
        assert (
            reg.counter("follower_commits_applied_total", follower="r0").value
            >= 10
        )
        assert reg.counter("replication_ack_timeouts_total").value == 0
        assert reg.gauge("replication_lag_bytes").value == 0.0
        status = shipper.status()
        assert status["ack_mode"] == "semi_sync"
        assert status["followers"]["r0"]["lag_bytes"] == 0
        shipper.close()
        db.close()
