"""The one LOG replay path, pinned against the original execution.

Equivalence is stated by reference to what *happened*, not to a second
implementation: a mixed workload that is crashed and recovered must end
in the physical state — row placement, delta dictionary code order,
commit stamps — of the same workload run without a crash. And because
crash recovery and replication followers are the same
:class:`~repro.recovery.log_recovery.LogReplayer` fed in different batch
sizes, feeding one log a frame at a time, seven at a time, or whole must
yield identical state.
"""

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.query.predicate import Eq
from repro.query.scan import scan
from repro.recovery import log_recovery
from repro.recovery.log_recovery import LogReplayer, recover_log
from repro.recovery.validator import validate_database
from repro.storage.backend import VolatileBackend
from repro.storage.schema import Schema
from repro.storage.types import DataType
from repro.wal.reader import LogScan
from repro.wal.records import (
    CommitRecord,
    CreateTableRecord,
    DropTableRecord,
    InsertRecord,
    encode_record,
)

from tests.conftest import make_config

ITEMS = {"id": DataType.INT64, "name": DataType.STRING}
_FRAME_HEADER = 8


def _mixed_workload(path, *, crash=True):
    """Inserts, bulk batches, deletes, updates, a merge, DDL, and one
    durable in-flight transaction.

    ``checkpoint_after_merge`` is off so the merge record stays in the
    replayed tail, and the in-flight transaction's operation records are
    force-synced so the crash deterministically leaves them durable.
    Returns the live database when ``crash`` is false.
    """
    cfg = make_config(
        DurabilityMode.LOG, group_commit_size=1, checkpoint_after_merge=False
    )
    db = Database(path, cfg)
    db.create_table("orders", ITEMS)
    db.create_table("items", ITEMS)
    db.create_table("scratch", ITEMS)
    db.bulk_insert("orders", [{"id": i, "name": f"o{i % 5}"} for i in range(60)])
    for i in range(40):
        db.insert("items", {"id": i, "name": f"i{i % 3}"})
    with db.begin() as txn:  # several single-row records under one tid
        for i in range(6):
            txn.insert("items", {"id": 200 + i, "name": f"m{i}"})
        txn.insert("orders", {"id": 300, "name": "cross-table"})
    with db.begin() as txn:
        ref = db.query("orders", Eq("id", 3)).refs()[0]
        txn.delete("orders", ref)
        ref = db.query("items", Eq("id", 7)).refs()[0]
        txn.update("items", ref, {"name": "touched"})
    db.merge("orders")
    # Post-merge writes reference the folded layout.
    db.bulk_insert("orders", [{"id": 100 + i, "name": "post"} for i in range(10)])
    db.insert("items", {"id": 999, "name": "late"})
    db.insert("scratch", {"id": 1, "name": "doomed"})
    db.drop_table("scratch")
    txn = db.begin()
    txn.insert("items", {"id": 5000, "name": "ghost"})
    ref = db.query("orders", Eq("id", 5)).refs()[0]
    txn.delete("orders", ref)
    db._driver._wal.sync()  # make the in-flight records durable
    if crash:
        db.crash()
        return None
    return db


def _physical(tables, last_cid, with_tids=True):
    """Everything replay must reproduce, per table name."""
    out = {"last_cid": last_cid}
    for table in tables:
        main, delta = table.main, table.delta
        n = delta.row_count
        cols = range(len(table.schema))
        state = {
            "table_id": table.table_id,
            "generation": table.generation,
            "main_rows": [main.decode_column(c) for c in cols],
            "delta_rows": [delta.decode_column(c) for c in cols],
            "delta_codes": [delta.column_codes(c).tolist() for c in cols],
            "delta_dictionaries": [
                delta.dictionaries[c].values_list() for c in cols
            ],
            "main_begin": main.mvcc.begin_array().tolist(),
            "main_end": main.mvcc.end_array().tolist(),
            "delta_begin": delta.mvcc.begin_array()[:n].tolist(),
            "delta_end": delta.mvcc.end_array()[:n].tolist(),
        }
        if with_tids:
            state["main_tid"] = main.mvcc.tid_array().tolist()
            state["delta_tid"] = delta.mvcc.tid_array()[:n].tolist()
        out[table.name] = state
    return out


def _replay_in_batches(log_path, batch, checkpoint_dir=None):
    """Feed the log ``batch`` frames per drain (0 = the whole tail)."""
    replayer = LogReplayer(VolatileBackend(), checkpoint_dir)
    fed = 0
    for payload, end_lsn in LogScan(log_path, replayer.start_lsn, decode=False):
        replayer.feed(payload, end_lsn)
        fed += 1
        if batch and fed % batch == 0:
            replayer.drain()
    rolled_back = replayer.finish()
    return replayer, rolled_back


class TestEqualsOriginalExecution:
    def test_recovery_reproduces_the_uncrashed_run(self, tmp_path):
        crashed = str(tmp_path / "crashed")
        _mixed_workload(crashed)
        live = _mixed_workload(str(tmp_path / "live"), crash=False)
        recovered = Database(crashed, make_config(DurabilityMode.LOG))
        try:
            # The open transaction holds tid locks in the live run and
            # is rolled back (locks released) in the recovered one;
            # every stamp that decides visibility is identical.
            assert _physical(
                recovered._tables_by_id.values(), recovered.last_cid, False
            ) == _physical(live._tables_by_id.values(), live.last_cid, False)
            for name in live.table_names:
                assert (
                    recovered.query(name).columns() == live.query(name).columns()
                )
            report = recovered.last_recovery
            assert report.txns_rolled_back == 1
            assert report.merges_replayed == 1
            assert report.rows_recovered == sum(
                live.table(n).row_count for n in live.table_names
            )
            assert not validate_database(
                recovered._tables_by_id.values(), recovered.last_cid
            )
            assert recovered.query("items", Eq("id", 5000)).count == 0
            assert recovered.query("orders", Eq("id", 5)).count == 1
        finally:
            recovered.close()
            live.close()

    @pytest.mark.parametrize("with_checkpoint", [False, True])
    def test_any_batching_yields_identical_state(self, tmp_path, with_checkpoint):
        """Follower apply (small batches) ≡ crash recovery (large)."""
        path = str(tmp_path / "db")
        if with_checkpoint:
            cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
            db = Database(path, cfg)
            db.create_table("pre", ITEMS)
            db.bulk_insert("pre", [{"id": i, "name": "x"} for i in range(30)])
            db.checkpoint()
            db.close()
        _mixed_workload(path)
        log_path = str(tmp_path / "db" / "wal.log")
        chain = str(tmp_path / "db" / "checkpoints")
        states = []
        for batch in (1, 7, 0):
            replayer, rolled_back = _replay_in_batches(log_path, batch, chain)
            assert rolled_back == 1
            assert (replayer.start_lsn > 0) is with_checkpoint
            states.append(
                (
                    _physical(replayer.tables.values(), replayer.last_cid),
                    sorted(replayer.names),
                    replayer.lsn,
                    replayer.max_tid,
                    replayer.next_table_id,
                    sorted(replayer.touched),
                    replayer.records,
                    replayer.commits,
                    replayer.merges,
                )
            )
        assert states[0] == states[1] == states[2]
        assert "scratch" not in states[0][1]

    def test_writes_after_recovery(self, tmp_path):
        path = str(tmp_path / "db")
        _mixed_workload(path)
        db = Database(path, make_config(DurabilityMode.LOG))
        db.insert("items", {"id": 7777, "name": "fresh"})
        with db.begin() as txn:
            ref = db.query("items", Eq("id", 7777)).refs()[0]
            txn.update("items", ref, {"name": "updated"})
        assert db.query("items", Eq("id", 7777)).column("name") == ["updated"]
        db = db.restart()
        assert db.query("items", Eq("id", 7777)).count == 1
        db.close()


def _payload(record) -> bytes:
    return encode_record(record)[_FRAME_HEADER:]


class TestReplayerContract:
    def _with_table(self):
        replayer = LogReplayer(VolatileBackend())
        schema = Schema.of(id=DataType.INT64, name=DataType.STRING)
        replayer.feed(_payload(CreateTableRecord(1, "t", schema.to_bytes())), 10)
        return replayer

    def test_last_cid_and_lsn_publish_only_after_apply(self):
        """A reader pinned at ``last_cid`` can never see a commit whose
        operations are still queued."""
        replayer = self._with_table()
        replayer.feed(_payload(InsertRecord(5, 1, (1, "a"))), 20)
        replayer.feed(_payload(CommitRecord(5, 3)), 30)
        assert (replayer.last_cid, replayer.lsn) == (0, 0)
        assert replayer.tables[1].row_count == 0
        assert replayer.pending_bytes > 0
        replayer.drain()
        assert (replayer.last_cid, replayer.lsn) == (3, 30)
        assert replayer.pending_bytes == 0
        assert replayer.tables[1].delta.mvcc.begin_array()[:1].tolist() == [3]

    def test_transaction_resolves_across_drains(self):
        replayer = self._with_table()
        replayer.feed(_payload(InsertRecord(5, 1, (1, "a"))), 20)
        replayer.drain()
        replayer.feed(_payload(InsertRecord(5, 1, (2, "b"))), 30)
        replayer.drain()
        table = replayer.tables[1]
        assert table.row_count == 2
        assert replayer.last_cid == 0
        replayer.feed(_payload(CommitRecord(5, 4)), 40)
        replayer.drain()
        assert table.delta.mvcc.begin_array()[:2].tolist() == [4, 4]
        assert replayer.finish() == 0

    def test_drop_discards_queued_work_and_frees_the_name(self):
        replayer = self._with_table()
        replayer.feed(_payload(InsertRecord(5, 1, (1, "a"))), 20)
        replayer.feed(_payload(DropTableRecord(1)), 30)
        schema = Schema.of(id=DataType.INT64)
        replayer.feed(_payload(CreateTableRecord(2, "t", schema.to_bytes())), 40)
        replayer.feed(_payload(CommitRecord(5, 2)), 50)
        replayer.drain()
        assert list(replayer.tables) == [2]
        assert replayer.names["t"] is replayer.tables[2]
        assert replayer.touched == {1, 2}
        assert replayer.finish() == 0

    def test_merge_replays_only_after_earlier_commits_publish(
        self, tmp_path, monkeypatch
    ):
        """A merge folds away rows whose deletes committed before it. A
        reader that starts once the fold has run must therefore already
        be pinned past those deletes — also when deletes and merge
        arrive in one batch."""
        path = str(tmp_path / "db")
        cfg = make_config(
            DurabilityMode.LOG, group_commit_size=1, checkpoint_after_merge=False
        )
        db = Database(path, cfg)
        db.create_table("t", ITEMS)
        db.bulk_insert("t", [{"id": i, "name": "x"} for i in range(20)])
        for i in range(5):
            with db.begin() as txn:
                txn.delete("t", db.query("t", Eq("id", i)).refs()[0])
        deleted_cid = db.last_cid
        db.merge("t")
        db.insert("t", {"id": 99, "name": "post"})
        db.close()

        replayer = LogReplayer(VolatileBackend())
        seen = []
        real_merge = log_recovery.replay_merge

        def merge_then_read(table, *args):
            real_merge(table, *args)
            seen.append(
                (replayer.last_cid, scan(table, snapshot_cid=replayer.last_cid).count)
            )

        monkeypatch.setattr(log_recovery, "replay_merge", merge_then_read)
        for payload, end_lsn in LogScan(
            str(tmp_path / "db" / "wal.log"), decode=False
        ):
            replayer.feed(payload, end_lsn)  # one batch: no drain in between
        replayer.finish()
        assert seen == [(deleted_cid, 15)]
        assert scan(replayer.names["t"], snapshot_cid=replayer.last_cid).count == 16

    def test_feed_reports_the_memory_bound(self, monkeypatch):
        replayer = self._with_table()
        payload = _payload(InsertRecord(5, 1, (1, "a")))
        monkeypatch.setattr(log_recovery, "REPLAY_BATCH_BYTES", 2 * len(payload))
        assert replayer.feed(payload, 20) is False
        assert replayer.feed(payload, 30) is True
        replayer.drain()
        assert replayer.feed(_payload(CommitRecord(5, 2)), 40) is False

    def test_recovery_memory_is_bounded_by_the_batch(self, tmp_path, monkeypatch):
        """recover_log never holds more than REPLAY_BATCH_BYTES plus one
        record of undrained payload, however long the tail."""
        path = str(tmp_path / "db")
        db = Database(path, make_config(DurabilityMode.LOG, group_commit_size=0))
        db.create_table("t", ITEMS)
        for start in range(0, 3000, 25):
            db.insert_many(
                "t", [{"id": start + i, "name": f"n{i}"} for i in range(25)]
            )
        db.close()
        log_path = str(tmp_path / "db" / "wal.log")
        largest = max(len(p) for p, _ in LogScan(log_path, decode=False))
        whole = recover_log(str(tmp_path / "none"), log_path, VolatileBackend())

        monkeypatch.setattr(log_recovery, "REPLAY_BATCH_BYTES", 4096)
        peaks = []
        drain = LogReplayer.drain

        def spy(self):
            peaks.append(self.pending_bytes)
            drain(self)

        monkeypatch.setattr(LogReplayer, "drain", spy)
        batched = recover_log(str(tmp_path / "none"), log_path, VolatileBackend())
        assert len(peaks) > 10
        assert max(peaks) < 4096 + largest
        assert _physical(batched.tables.values(), batched.last_cid) == _physical(
            whole.tables.values(), whole.last_cid
        )


class TestRecoveryReport:
    def test_phases(self, tmp_path):
        path = str(tmp_path / "db")
        _mixed_workload(path)
        db = Database(path, make_config(DurabilityMode.LOG))
        assert [name for name, _ in db.last_recovery.phases] == [
            "checkpoint_load",
            "log_replay",
            "log_reopen",
            "index_rebuild",
        ]
        db.close()

    def test_span_coverage(self, tmp_path):
        """The phase spans account for >=95% of recovery wall time."""
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG)
        db = Database(path, cfg)
        db.create_table("items", ITEMS)
        db.bulk_insert(
            "items", [{"id": i, "name": f"n{i % 7}"} for i in range(3000)]
        )
        db.create_index("items", "id")
        db.crash()
        db = Database(path, cfg)
        report = db.last_recovery
        assert report.span.finished
        assert report.span.child_seconds() >= 0.95 * report.total_seconds
        db.close()

    def test_replay_starts_at_the_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
        db = Database(path, cfg)
        db.create_table("items", ITEMS)
        db.bulk_insert("items", [{"id": i, "name": "x"} for i in range(30)])
        db.checkpoint()
        for i in range(10):
            db.insert("items", {"id": 100 + i, "name": "tail"})
        db.crash()
        db = Database(path, cfg)
        assert db.last_recovery.checkpoint_bytes > 0
        assert db.last_recovery.log_records_replayed == 20  # 10 × (op + commit)
        assert db.query("items").count == 40
        db.close()


class TestEdgeCases:
    def test_dropped_table_stays_dropped(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
        db = Database(path, cfg)
        db.create_table("keep", ITEMS)
        db.create_table("gone", ITEMS)
        db.bulk_insert("gone", [{"id": i, "name": "x"} for i in range(10)])
        db.insert("keep", {"id": 1, "name": "a"})
        db.drop_table("gone")
        db.crash()
        db = Database(path, cfg)
        assert db.table_names == ["keep"]
        db.close()

    def test_inflight_rolled_back(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
        db = Database(path, cfg)
        db.create_table("t", ITEMS)
        db.bulk_insert("t", [{"id": i, "name": "x"} for i in range(12)])
        txn = db.begin()
        txn.insert("t", {"id": 999, "name": "ghost"})
        db._driver._wal.sync()  # make the in-flight record durable
        db.crash()
        db = Database(path, cfg)
        assert db.last_recovery.txns_rolled_back == 1
        assert db.query("t").count == 12
        assert db.query("t", Eq("id", 999)).count == 0
        db.close()

    def test_declared_indexes_rebuilt(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
        db = Database(path, cfg)
        for name in ("a", "b", "c"):
            db.create_table(name, ITEMS)
            db.bulk_insert(name, [{"id": i, "name": "x"} for i in range(20)])
            db.create_index(name, "id")
        db.crash()
        db = Database(path, cfg)
        for name in ("a", "b", "c"):
            assert "id" in db.indexes_on(name)
            assert db.query(name, Eq("id", 11)).count == 1
        db.close()
