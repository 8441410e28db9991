"""Log-path hardening tests: resumable scans, live tailing, frame bounds.

The replication work leans on three reader/writer properties that plain
crash recovery never exercised:

* :func:`~repro.wal.reader.read_log` must say *where* and *why* a scan
  stopped (``last_good_lsn`` / ``stop_reason``) for every possible torn
  tail — swept here at every prefix length of a multi-record log;
* :func:`~repro.wal.reader.tail_log` must treat an incomplete frame as
  in-flight rather than torn, so a tailer racing a byte-at-a-time
  appender still sees every record exactly once, in order;
* :class:`~repro.wal.writer.LogWriter` must never emit a frame the
  reader would reject as garbage — oversized batches split by rows, an
  unsplittable row raises before anything is acknowledged;
* a transaction is in the file whole or not at all, so a tailer (and a
  follower promoted off whatever it shipped) never acts on part of one.
"""

from __future__ import annotations

import os
import struct
import threading

import pytest

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database
from repro.query.predicate import Eq
from repro.replication import Follower
from repro.storage.types import DataType
from repro.wal.reader import (
    MAX_RECORD_BYTES,
    LogScan,
    count_records,
    read_log,
    tail_log,
)
from repro.wal.records import (
    CommitRecord,
    InsertManyRecord,
    InvalidateRecord,
    RecordTooLarge,
    encode_record,
)
from repro.wal.writer import LogWriter


def _build_log(path: str, records: int = 5) -> list[tuple]:
    """Write ``records`` insert records; return [(record, end_lsn)]."""
    writer = LogWriter(path, group_size=0)
    for i in range(records):
        writer.log_insert(i + 1, 1, (i, f"note-{i}"))
    writer.close()
    return list(read_log(path))


class TestStopReasons:
    def test_missing_file(self, tmp_path):
        scan = read_log(str(tmp_path / "nope.log"))
        assert list(scan) == []
        assert scan.stop_reason == "missing"
        assert scan.last_good_lsn == 0

    def test_clean_eof_at_boundary(self, tmp_path):
        path = str(tmp_path / "wal.log")
        expected = _build_log(path)
        scan = read_log(path)
        assert list(scan) == expected
        assert scan.stop_reason == "eof"
        assert scan.last_good_lsn == os.path.getsize(path)

    def test_crc_failure_mid_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        expected = _build_log(path)
        # Flip one payload byte of the third record.
        second_end = expected[1][1]
        with open(path, "r+b") as f:
            f.seek(second_end + 8 + 1)  # past the frame header
            byte = f.read(1)
            f.seek(second_end + 8 + 1)
            f.write(bytes([byte[0] ^ 0xFF]))
        scan = read_log(path)
        assert list(scan) == expected[:2]
        assert scan.stop_reason == "crc"
        assert scan.last_good_lsn == second_end

    def test_oversize_length_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        expected = _build_log(path)
        with open(path, "ab") as f:
            f.write(struct.pack("<II", MAX_RECORD_BYTES + 1, 0))
        scan = read_log(path)
        assert list(scan) == expected
        assert scan.stop_reason == "oversize"
        assert scan.last_good_lsn == expected[-1][1]

    def test_resume_from_mid_log_lsn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        expected = _build_log(path)
        resume = expected[2][1]
        scan = read_log(path, start_lsn=resume)
        assert list(scan) == expected[3:]
        assert scan.stop_reason == "eof"
        assert count_records(path, start_lsn=resume) == 2

    def test_every_prefix_length(self, tmp_path):
        """Truncate the log at *every* byte offset: the scan must yield
        exactly the intact records, report the right boundary, and
        classify the stop — never crash, never yield garbage."""
        source = str(tmp_path / "source.log")
        expected = _build_log(source)
        blob = open(source, "rb").read()
        boundaries = [0] + [end for _, end in expected]
        cut_path = str(tmp_path / "cut.log")
        for cut in range(len(blob) + 1):
            with open(cut_path, "wb") as f:
                f.write(blob[:cut])
            scan = read_log(cut_path)
            intact = [pair for pair in expected if pair[1] <= cut]
            assert list(scan) == intact, f"cut at {cut}"
            assert scan.last_good_lsn == max(
                b for b in boundaries if b <= cut
            ), f"cut at {cut}"
            if cut in boundaries:
                assert scan.stop_reason == "eof", f"cut at {cut}"
            else:
                assert scan.stop_reason == "short", f"cut at {cut}"


class TestLiveTail:
    def test_tailer_races_byte_at_a_time_appender(self, tmp_path):
        """An appender dribbling one byte per write means the tailer
        observes every possible torn prefix in passing; it must wait out
        each incomplete frame and still deliver all records in order."""
        source = str(tmp_path / "source.log")
        expected = _build_log(source, records=8)
        blob = open(source, "rb").read()
        live = str(tmp_path / "live.log")
        open(live, "wb").close()

        def appender() -> None:
            with open(live, "ab", buffering=0) as f:
                for i in range(len(blob)):
                    f.write(blob[i : i + 1])

        thread = threading.Thread(target=appender)
        thread.start()
        got = []
        tail = tail_log(
            live,
            poll_interval_s=0.0001,
            stop=lambda: len(got) >= len(expected),
        )
        for record, end_lsn in tail:
            got.append((record, end_lsn))
        thread.join()
        assert got == expected

    def test_frontier_withholds_unflushed_suffix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        expected = _build_log(path, records=3)
        limit = [expected[0][1]]  # only the first record is "durable"
        got = []
        tail = tail_log(
            path,
            poll_interval_s=0.0001,
            stop=lambda: len(got) >= 3,
            frontier=lambda: limit[0],
        )
        iterator = iter(tail)
        got.append(next(iterator))
        assert got == expected[:1]
        # The frontier holds: polling again must not yield record 2
        # until the frontier advances past it.
        limit[0] = expected[2][1]
        got.append(next(iterator))
        got.append(next(iterator))
        assert got == expected


class TestFrameBounds:
    def test_oversized_batch_splits_by_rows(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0, max_record_bytes=256)
        rows = [(k, f"padding-{k:04d}-" + "x" * 24) for k in range(16)]
        writer.log_insert_many(7, 1, 40, list(zip(*rows)))
        writer.append_commit(7, 1)
        writer.close()
        *records, commit = [record for record, _ in read_log(path)]
        assert len(records) > 1  # actually split
        assert all(isinstance(r, InsertManyRecord) for r in records)
        assert commit == CommitRecord(1)  # one group: halves commit together
        rebuilt = []
        for r in records:
            # Every piece names the delta position it occupies.
            assert r.first_row == 40 + len(rebuilt)
            rebuilt.extend(zip(*r.columns))
        assert rebuilt == rows  # contiguous, order-preserving

    def test_split_halves_carry_first_row_and_first_row_plus_half(self, tmp_path):
        path = str(tmp_path / "wal.log")
        rows = [(k, "x" * 40) for k in range(4)]
        whole = len(
            encode_record(InsertManyRecord(1, 100, tuple(zip(*rows))))
        )
        writer = LogWriter(path, group_size=0, max_record_bytes=whole - 9)
        writer.log_insert_many(7, 1, 100, list(zip(*rows)))
        writer.append_commit(7, 1)
        writer.close()
        first, second, _ = [record for record, _ in read_log(path)]
        assert (first.first_row, first.row_count) == (100, 2)
        assert (second.first_row, second.row_count) == (102, 2)

    def test_unsplittable_row_raises_and_writes_nothing(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0, max_record_bytes=64)
        with pytest.raises(RecordTooLarge):
            writer.log_insert_many(7, 1, 0, [(1,), ("y" * 200,)])
        # A batch whose *second* half is unsplittable stages nothing
        # either — not even the half that would have fit.
        with pytest.raises(RecordTooLarge):
            writer.log_insert_many(7, 1, 0, [(1, 2), ("ok", "y" * 200)])
        writer.append_commit(7, 1)
        writer.close()
        assert [r for r, _ in read_log(path)] == [CommitRecord(1)]

    def test_single_record_path_also_bounded(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0, max_record_bytes=64)
        with pytest.raises(RecordTooLarge):
            writer.log_insert(1, 1, (1, "z" * 200))
        writer.close()
        assert count_records(path) == 0

    def test_engine_batch_beyond_frame_bound_round_trips(self, tmp_path):
        """A bulk load whose single framed record would exceed the
        64 MiB replayable bound must still recover completely — the
        writer splits it into several records under one transaction."""
        rows = [
            {"id": i, "payload": f"{i:04d}" + "p" * (1 << 20)}
            for i in range(70)  # ~70 MiB encoded, > MAX_RECORD_BYTES
        ]
        db = Database(
            str(tmp_path / "db"),
            EngineConfig(mode=DurabilityMode.LOG),
        )
        db.create_table(
            "blobs", {"id": DataType.INT64, "payload": DataType.STRING}
        )
        db.bulk_insert("blobs", rows)
        db.close()
        log = str(tmp_path / "db" / "wal.log")
        batch_records = [
            r for r, _ in read_log(log) if isinstance(r, InsertManyRecord)
        ]
        assert len(batch_records) > 1  # the bound forced a split
        reopened = Database(
            str(tmp_path / "db"), EngineConfig(mode=DurabilityMode.LOG)
        )
        result = reopened.query("blobs")
        assert result.count == len(rows)
        ids = sorted(result.column("id"))
        assert ids == list(range(70))
        reopened.close()


class TestGroupsInTheTail:
    def _tail(self, writer, from_lsn=0, polls=20):
        """Everything a shipper would see, polling ``polls`` times."""
        budget = [polls]

        def stop() -> bool:
            budget[0] -= 1
            return budget[0] < 0

        return list(
            tail_log(
                writer.path,
                from_lsn,
                poll_interval_s=0.0001,
                stop=stop,
                frontier=writer.flush_to_os,
            )
        )

    def test_tailer_sees_a_transaction_only_at_its_commit(self, tmp_path):
        writer = LogWriter(str(tmp_path / "wal.log"), group_size=0)
        first_end = writer.append_commit(1, 1)
        writer.log_insert_many(2, 1, 0, [(1,), ("staged",)])
        writer.log_invalidate(2, 1, 3)
        assert self._tail(writer) == [(CommitRecord(1), first_end)]
        end = writer.append_commit(2, 2)
        shipped = self._tail(writer, first_end)
        assert [r for r, _ in shipped] == [
            InsertManyRecord(1, 0, ((1,), ("staged",))),
            InvalidateRecord(1, 3),
            CommitRecord(2),
        ]
        assert shipped[-1][1] == end
        writer.close()

    def test_follower_promoted_mid_group_opens_without_the_group(self, tmp_path):
        """The shipper stops between two frames of one group: the
        follower never publishes an LSN inside it, and promotion — an
        ordinary LOG open — truncates the mirror to the group boundary
        and serves exactly the transactions that arrived whole."""
        cfg = EngineConfig(mode=DurabilityMode.LOG, group_commit_size=1)
        db = Database(str(tmp_path / "primary"), cfg)
        db.create_table("t", {"id": DataType.INT64, "v": DataType.STRING})
        for i in range(5):
            db.insert("t", {"id": i, "v": "whole"})
        with db.begin() as txn:
            txn.insert("t", {"id": 100, "v": "partly shipped"})
            txn.insert("t", {"id": 101, "v": "never shipped"})
            txn.delete("t", db.query("t", Eq("id", 0)).refs()[0])
        db.close()
        frames = list(LogScan(str(tmp_path / "primary" / "wal.log"), decode=False))
        assert len(frames) == 1 + 5 * 2 + 4
        boundary = frames[10][1]  # end of the last single-row group

        replica = Follower(str(tmp_path / "replica"))
        replica.bootstrap(None, 0)
        for payload, end_lsn in frames[:12]:  # ...plus 1 of the group's 4
            replica.enqueue(payload, end_lsn)
        replica.start()
        assert replica.wait_for(boundary)
        promoted = replica.promote(cfg)
        try:
            assert replica.applied_lsn == boundary
            assert os.path.getsize(replica.log_path) == boundary
            assert sorted(promoted.query("t").column("id")) == [0, 1, 2, 3, 4]
            assert promoted.verify() == []
            assert promoted.last_recovery.txns_rolled_back == 0
            promoted.insert("t", {"id": 7, "v": "post-failover"})
            promoted.crash(seed=1)
            promoted = Database(promoted.path, cfg)
            assert sorted(promoted.query("t").column("id")) == [0, 1, 2, 3, 4, 7]
        finally:
            promoted.close()
            replica.close()


class TestReopenDurability:
    def test_reopen_fsyncs_inherited_tail(self, tmp_path, monkeypatch):
        """Reopening a non-empty log must fsync before trusting the
        inherited bytes: ``_synced_lsn`` starts at the file size, so a
        commit landing at-or-before it would otherwise skip its fsync
        on the strength of bytes that may only exist in the page cache
        (a promoted follower's log was written without any fsync)."""
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0)
        writer.log_insert(1, 1, (1, "a"))
        writer._file.close()  # flushed to the OS, never fsynced

        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr("repro.wal.writer.os.fsync", counting_fsync)
        reopened = LogWriter(path)
        assert calls, "inherited tail was claimed durable without fsync"
        assert reopened.durable_lsn == os.path.getsize(path)
        reopened.close()

        calls.clear()
        empty = LogWriter(str(tmp_path / "empty.log"))
        assert not calls  # nothing inherited, nothing to fsync
        empty.close()
