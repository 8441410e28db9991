"""The one LOG replay path, pinned against the original execution.

Equivalence is stated by reference to what *happened*, not to a second
implementation: a mixed workload that is crashed and recovered must end
with every committed row version where the same workload run without a
crash has it — same partition, same position, same values, same commit
stamps. Rows that never committed were never logged, so where the live
run holds their garbage the recovered one holds dead padding, or
nothing. The log is REDO-only, so *every prefix* of it that ends inside
or after a group is the transaction-consistent state after the last
complete group. And because crash recovery and replication followers
are the same :class:`~repro.recovery.log_recovery.LogReplayer` fed in
different batch sizes, feeding one log a frame at a time, seven at a
time, or whole must yield identical state.
"""

import os
import shutil

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.query.predicate import Eq
from repro.query.scan import scan
from repro.recovery import log_recovery
from repro.recovery.log_recovery import LogReplayer, recover_log
from repro.recovery.validator import validate_database
from repro.storage.backend import VolatileBackend
from repro.storage.mvcc import INFINITY_CID
from repro.storage.schema import Schema
from repro.storage.types import DataType
from repro.wal.reader import LogScan
from repro.wal.records import (
    TYPE_COMMIT,
    CommitRecord,
    CreateTableRecord,
    DropTableRecord,
    InsertManyRecord,
    InsertRecord,
    InvalidateRecord,
    encode_record,
)

from tests.conftest import make_config

ITEMS = {"id": DataType.INT64, "name": DataType.STRING}
_FRAME_HEADER = 8


def _mixed_workload(path, *, crash=True, mark=lambda db: None):
    """Inserts, bulk batches, deletes, updates, interleaved and aborted
    transactions, a merge, DDL, and one transaction still open at the end.

    The checkpoint a LOG merge takes after itself is skipped, so the
    merge record stays in the replayed tail. ``mark(db)`` is called after every step that may have moved the log.
    Returns the live database when ``crash`` is false.
    """
    cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
    db = Database(path, cfg)
    for name in ("orders", "items", "scratch"):
        db.create_table(name, ITEMS)
        mark(db)
    db.bulk_insert("orders", [{"id": i, "name": f"o{i % 5}"} for i in range(60)])
    mark(db)
    for i in range(12):
        db.insert("items", {"id": i, "name": f"i{i % 3}"})
        mark(db)
    with db.begin() as txn:  # several records in one group, two tables
        for i in range(6):
            txn.insert("items", {"id": 200 + i, "name": f"m{i}"})
        txn.insert("orders", {"id": 300, "name": "cross-table"})
    mark(db)
    # Interleaved on one table: T1 places its rows first and commits
    # last, T2 commits first, T3 aborts — the log holds T2's group, then
    # T1's, naming positions on either side of T3's never-logged rows.
    t1, t2, t3 = db.begin(), db.begin(), db.begin()
    t1.insert("items", {"id": 401, "name": "t1-a"})
    t2.insert("items", {"id": 402, "name": "t2"})
    t3.insert_many("items", [{"id": 403, "name": "t3"}] * 3)
    t1.insert("items", {"id": 404, "name": "t1-b"})
    t2.commit()
    mark(db)
    t3.abort()
    mark(db)
    t1.commit()
    mark(db)
    # Rows placed after aborted rows, then addressed by rowref.
    doomed = db.begin()
    doomed.insert_many("items", [{"id": 500 + i, "name": "doomed"} for i in range(4)])
    doomed.abort()
    db.insert("items", {"id": 510, "name": "after-the-gap"})
    mark(db)
    db.insert("items", {"id": 511, "name": "after-the-gap"})
    mark(db)
    with db.begin() as txn:
        ref = db.query("orders", Eq("id", 3)).refs()[0]
        txn.delete("orders", ref)
        ref = db.query("items", Eq("id", 7)).refs()[0]
        txn.update("items", ref, {"name": "touched"})
        txn.update("items", db.query("items", Eq("id", 510)).refs()[0], {"name": "moved"})
        txn.delete("items", db.query("items", Eq("id", 511)).refs()[0])
    mark(db)
    # A dead tail just below the merge watermark: nothing logged sits at
    # or after these positions when the merge record is replayed.
    doomed = db.begin()
    doomed.insert_many("orders", [{"id": 600 + i, "name": "doomed"} for i in range(3)])
    doomed.abort()
    db._driver.on_merge_complete = lambda table: None
    db.merge("orders")
    mark(db)
    # Post-merge writes reference the folded layout.
    db.bulk_insert("orders", [{"id": 100 + i, "name": "post"} for i in range(10)])
    mark(db)
    db.insert("items", {"id": 999, "name": "late"})
    mark(db)
    db.insert("scratch", {"id": 1, "name": "doomed"})
    mark(db)
    db.drop_table("scratch")
    mark(db)
    txn = db.begin()
    txn.insert("items", {"id": 5000, "name": "ghost"})
    ref = db.query("orders", Eq("id", 5)).refs()[0]
    txn.delete("orders", ref)
    if crash:
        db.crash()
        return None
    return db


def _physical(tables, last_cid):
    """The whole physical state, per table name."""
    out = {"last_cid": last_cid}
    for table in tables:
        main, delta = table.main, table.delta
        n = delta.row_count
        cols = range(len(table.schema))
        out[table.name] = {
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
            "main_tid": main.mvcc.tid_array().tolist(),
            "delta_tid": delta.mvcc.tid_array()[:n].tolist(),
        }
    return out


def _committed(tables, last_cid):
    """Every row version that ever committed: where it sits, what it
    holds and the stamps that decide its visibility."""
    out = {"last_cid": last_cid}
    for table in tables:
        rows = []
        for part_name, part in (("main", table.main), ("delta", table.delta)):
            n = part.row_count
            values = [part.decode_column(c) for c in range(len(table.schema))]
            begin = part.mvcc.begin_array()[:n].tolist()
            end = part.mvcc.end_array()[:n].tolist()
            rows.extend(
                (part_name, i, tuple(col[i] for col in values), begin[i], end[i])
                for i in range(n)
                if begin[i] != INFINITY_CID
            )
        out[table.name] = (table.table_id, table.generation, rows)
    return out


def _rows(result):
    """A scan's rows as a sorted list of (id, name)."""
    return sorted(zip(result.column("id"), result.column("name")))


def _one_row_per_record(log_path, out_path, start_lsn):
    """Rewrite the log's tail with every insert batch as one-row records
    (each naming its own position): what a writer that never batched
    would have left behind."""
    with open(log_path, "rb") as src, open(out_path, "wb") as out:
        out.write(src.read(start_lsn))
        for record, _ in LogScan(log_path, start_lsn):
            if isinstance(record, InsertManyRecord):
                for i in range(record.row_count):
                    row = tuple((col[i],) for col in record.columns)
                    out.write(
                        encode_record(
                            InsertManyRecord(record.table_id, record.first_row + i, row)
                        )
                    )
            else:
                out.write(encode_record(record))


def _replay_in_batches(log_path, batch, checkpoint_dir=None):
    """Feed the log ``batch`` frames per drain (0 = the whole tail)."""
    replayer = LogReplayer(VolatileBackend(), checkpoint_dir)
    fed = 0
    for payload, end_lsn in LogScan(log_path, replayer.start_lsn, decode=False):
        replayer.feed(payload, end_lsn)
        fed += 1
        if batch and fed % batch == 0:
            replayer.drain()
    replayer.drain()
    return replayer


class TestEqualsOriginalExecution:
    def test_recovery_reproduces_the_uncrashed_run(self, tmp_path):
        crashed = str(tmp_path / "crashed")
        _mixed_workload(crashed)
        live = _mixed_workload(str(tmp_path / "live"), crash=False)
        recovered = Database(crashed, make_config(DurabilityMode.LOG))
        try:
            assert _committed(
                recovered._tables_by_id.values(), recovered.last_cid
            ) == _committed(live._tables_by_id.values(), live.last_cid)
            for name in live.table_names:
                assert (
                    recovered.query(name).columns() == live.query(name).columns()
                )
                # Never-committed rows are dead padding below a committed
                # row, or — at the tail (here: the ghost) — nothing.
                assert (
                    recovered.table(name).delta.row_count
                    <= live.table(name).delta.row_count
                )
            report = recovered.last_recovery
            assert report.txns_rolled_back == 0
            assert report.merges_replayed == 1
            assert report.rows_recovered == sum(
                live.table(n).row_count for n in live.table_names
            ) - 1  # the ghost's row
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
            replayer = _replay_in_batches(log_path, batch, chain)
            assert (replayer.start_lsn > 0) is with_checkpoint
            states.append(
                (
                    _physical(replayer.tables.values(), replayer.last_cid),
                    sorted(replayer.names),
                    replayer.next_table_id,
                    sorted(replayer.touched),
                    replayer.commits,
                    replayer.merges,
                    replayer.lsn,
                    replayer.records,
                )
            )
        assert states[0] == states[1] == states[2]
        assert "scratch" not in states[0][1]
        # The same work logged one row per record — every insert frame
        # takes the one-row codec: more records, the same state.
        scalar_log = str(tmp_path / "one-row.log")
        _one_row_per_record(log_path, scalar_log, replayer.start_lsn)
        for batch in (1, 0):
            replayer = _replay_in_batches(scalar_log, batch, chain)
            assert replayer.records > states[0][-1]
            assert (
                _physical(replayer.tables.values(), replayer.last_cid),
                sorted(replayer.names),
                replayer.next_table_id,
                sorted(replayer.touched),
                replayer.commits,
                replayer.merges,
            ) == states[0][:-2]

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


class TestEveryPrefixIsConsistent:
    def test_every_cut_recovers_the_last_complete_group(self, tmp_path):
        """Cut the mixed log at every frame boundary and inside every
        frame: recovery yields exactly the state after the last complete
        group, truncates the log there, and stays writable."""
        trace = [(0, {})]

        def mark(db):
            state = {n: _rows(db.query(n)) for n in db.table_names}
            trace.append((db._driver.wal.lsn, state))

        source = str(tmp_path / "source")
        _mixed_workload(source, mark=mark)
        log_path = os.path.join(source, "wal.log")
        with open(log_path, "rb") as f:
            blob = f.read()
        frames = [0] + [end for _, end in LogScan(log_path, decode=False)]
        assert frames[-1] == trace[-1][0]  # the ghost never reached the file
        boundaries = {lsn for lsn, _ in trace}
        assert len(frames) - len(boundaries) > 20  # many cuts are mid-group
        cuts = set(frames) | {(a + b) // 2 for a, b in zip(frames, frames[1:])}
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
        for cut in sorted(cuts):
            path = str(tmp_path / "cut")
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
            with open(os.path.join(path, "wal.log"), "wb") as f:
                f.write(blob[:cut])
            boundary, model = max(
                (entry for entry in trace if entry[0] <= cut), key=lambda e: e[0]
            )
            db = Database(path, cfg)
            where = f"cut at {cut}"
            assert os.path.getsize(os.path.join(path, "wal.log")) == boundary, where
            assert sorted(model) == db.table_names, where
            for name, rows in model.items():
                assert _rows(db.query(name)) == rows, where
            assert db.verify() == [], where
            assert db.last_recovery.txns_rolled_back == 0
            # A write after reopen survives a second crash.
            if "fresh" not in db.table_names:
                db.create_table("fresh", ITEMS)
            db.insert("fresh", {"id": cut, "name": "after"})
            if "items" in model:
                db.insert("items", {"id": 10_000 + cut, "name": "after"})
            db.crash()
            db = Database(path, cfg)
            assert _rows(db.query("fresh")) == [(cut, "after")], where
            for name, rows in model.items():
                extra = [(10_000 + cut, "after")] if name == "items" else []
                assert _rows(db.query(name)) == rows + extra, where
            assert db.verify() == [], where
            db.close()


def _payload(record) -> bytes:
    return encode_record(record)[_FRAME_HEADER:]


def _insert(first_row, *rows):
    """Payload of an insert into table 1 at delta row ``first_row``."""
    return _payload(InsertManyRecord(1, first_row, tuple(zip(*rows))))


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
        replayer.feed(_insert(0, (1, "a")), 20)
        assert replayer.pending_bytes == 0  # held in the open group
        replayer.feed(_payload(CommitRecord(3)), 30)
        assert (replayer.last_cid, replayer.lsn) == (0, 0)
        assert replayer.tables[1].row_count == 0
        assert replayer.pending_bytes > 0
        replayer.drain()
        assert (replayer.last_cid, replayer.lsn) == (3, 30)
        assert replayer.pending_bytes == 0
        assert replayer.tables[1].delta.mvcc.begin_array()[:1].tolist() == [3]

    def test_open_group_applies_nothing_and_publishes_no_lsn(self):
        """Drains may fall anywhere inside a group: its records apply
        only once the commit record closes it, and ``lsn`` — where a
        torn tail is truncated — never points inside it."""
        replayer = self._with_table()
        replayer.feed(_insert(0, (1, "a")), 20)
        replayer.drain()
        replayer.feed(_insert(1, (2, "b")), 30)
        replayer.drain()
        table = replayer.tables[1]
        assert table.row_count == 0
        assert (replayer.last_cid, replayer.lsn) == (0, 10)
        replayer.feed(_payload(CommitRecord(4)), 40)
        replayer.drain()
        assert table.delta.mvcc.begin_array()[:2].tolist() == [4, 4]
        assert (replayer.last_cid, replayer.lsn) == (4, 40)

    def test_later_commit_fills_an_earlier_position(self):
        """T1 placed its row first but commits after T2, and the rows
        between them belong to a transaction that aborted: the gap is
        dead padding, T1's group overwrites its share of it, and a
        reader that cached visibility in between sees the change."""
        replayer = self._with_table()
        table = replayer.tables[1]
        replayer.feed(_insert(3, (2, "t2")), 20)
        replayer.feed(_payload(CommitRecord(1)), 30)
        replayer.drain()
        assert table.delta.row_count == 4
        assert _rows(scan(table, snapshot_cid=replayer.last_cid)) == [(2, "t2")]
        assert not validate_database([table], replayer.last_cid)
        replayer.feed(_insert(0, (1, "t1")), 40)
        replayer.feed(_payload(CommitRecord(2)), 50)
        replayer.drain()
        assert table.delta.row_count == 4
        assert _rows(scan(table, snapshot_cid=1)) == [(2, "t2")]
        assert _rows(scan(table, snapshot_cid=2)) == [(1, "t1"), (2, "t2")]
        replayer.feed(_payload(InvalidateRecord(1, (1 << 63) | 3)), 60)
        replayer.feed(_payload(CommitRecord(3)), 70)
        replayer.drain()
        assert _rows(scan(table, snapshot_cid=3)) == [(1, "t1")]
        assert table.delta.mvcc.begin_array().tolist() == [
            2, INFINITY_CID, INFINITY_CID, 1
        ]
        assert table.delta.decode_column(1) == ["t1", None, None, "t2"]
        assert not validate_database([table], replayer.last_cid)

    def test_scalar_insert_record_is_not_replayable(self):
        """It names no position; no engine path writes it."""
        replayer = self._with_table()
        with pytest.raises(ValueError, match="unreplayable"):
            replayer.feed(_payload(InsertRecord(5, 1, (1, "a"))), 20)

    def test_drop_discards_queued_work_and_frees_the_name(self):
        replayer = self._with_table()
        replayer.feed(_insert(0, (1, "a")), 20)
        replayer.feed(_payload(CommitRecord(2)), 30)
        replayer.feed(_payload(DropTableRecord(1)), 40)
        schema = Schema.of(id=DataType.INT64)
        replayer.feed(_payload(CreateTableRecord(2, "t", schema.to_bytes())), 50)
        replayer.drain()
        assert list(replayer.tables) == [2]
        assert replayer.names["t"] is replayer.tables[2]
        assert replayer.touched == {1, 2}
        assert (replayer.last_cid, replayer.lsn) == (2, 50)

    def test_merge_replays_only_after_earlier_commits_publish(
        self, tmp_path, monkeypatch
    ):
        """A merge folds away rows whose deletes committed before it. A
        reader that starts once the fold has run must therefore already
        be pinned past those deletes — also when deletes and merge
        arrive in one batch."""
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
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
        replayer.drain()
        assert seen == [(deleted_cid, 15)]
        assert scan(replayer.names["t"], snapshot_cid=replayer.last_cid).count == 16

    def test_feed_reports_the_memory_bound(self, monkeypatch):
        replayer = self._with_table()
        first, second = _insert(0, (1, "a")), _insert(1, (2, "b"))
        monkeypatch.setattr(
            log_recovery, "REPLAY_BATCH_BYTES", len(first) + len(second)
        )
        # Never mid-group: a drain there could apply nothing anyway.
        assert replayer.feed(first, 20) is False
        assert replayer.feed(second, 30) is False
        assert replayer.feed(_payload(CommitRecord(2)), 40) is True
        replayer.drain()
        assert replayer.feed(_payload(CommitRecord(3)), 50) is False

    def test_recovery_memory_is_bounded_by_the_batch(self, tmp_path, monkeypatch):
        """recover_log never holds more than REPLAY_BATCH_BYTES plus one
        transaction's frames of undrained payload, however long the
        tail."""
        path = str(tmp_path / "db")
        db = Database(path, make_config(DurabilityMode.LOG, group_commit_size=0))
        db.create_table("t", ITEMS)
        for start in range(0, 3000, 25):
            with db.begin() as txn:  # a group of 1–3 insert frames
                for part in range(1 + start % 3):
                    txn.insert_many(
                        "t",
                        [
                            {"id": start + i, "name": f"n{i}-{part}"}
                            for i in range(25)
                        ],
                    )
        db.close()
        log_path = str(tmp_path / "db" / "wal.log")
        largest = group = 0
        for payload, _ in LogScan(log_path, decode=False):
            group = 0 if payload[0] == TYPE_COMMIT else group + len(payload)
            largest = max(largest, group)
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
        db._driver.wal.sync()  # nothing of it is in the file to sync
        db.crash()
        db = Database(path, cfg)
        assert db.last_recovery.txns_rolled_back == 0  # REDO-only
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
