"""Unit tests for log records, writer, and reader."""

import os
import sys
import threading

import pytest

from repro.wal.reader import count_records, read_log
from repro.wal.records import (
    CommitRecord,
    CreateTableRecord,
    InsertManyRecord,
    InsertRecord,
    InvalidateRecord,
    MergeRecord,
    decode_record,
    encode_record,
)
from repro.wal.writer import LogWriter

from tests.conftest import wal_commit


RECORDS = [
    InsertRecord(1, 2, (5, "text", 2.5, None)),
    InsertManyRecord(2, 40, ((5, 6), ("a", None))),
    InvalidateRecord(2, (1 << 63) | 17),
    CommitRecord(9),
    CreateTableRecord(4, "tbl", b"\x01\x02schema"),
]


class TestRecordCodec:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_roundtrip(self, record):
        frame = encode_record(record)
        decoded, end = decode_record(frame, 0)
        assert decoded == record
        assert end == len(frame)

    def test_unicode_values(self):
        record = InsertRecord(1, 1, ("héllo ✓", -1, 0.0))
        decoded, _ = decode_record(encode_record(record), 0)
        assert decoded == record

    def test_truncated_frame_returns_none(self):
        frame = encode_record(RECORDS[0])
        assert decode_record(frame[:-1], 0) is None
        assert decode_record(frame[:4], 0) is None

    def test_corrupt_payload_fails_crc(self):
        frame = bytearray(encode_record(RECORDS[0]))
        frame[-1] ^= 0xFF
        assert decode_record(bytes(frame), 0) is None

    def test_bool_values_rejected(self):
        with pytest.raises(TypeError):
            encode_record(InsertRecord(1, 1, (True,)))

    def test_unsupported_value_rejected(self):
        with pytest.raises(TypeError):
            encode_record(InsertRecord(1, 1, (object(),)))


class TestLogWriter:
    def test_writes_readable_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=1)
        writer.log_insert(1, 2, [5, "x"])
        wal_commit(writer, 1, 1)
        writer.close()
        records = [r for r, _ in read_log(path)]
        assert records == [InsertRecord(1, 2, (5, "x")), CommitRecord(1)]

    def test_sync_per_commit(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=1)
        for i in range(5):
            wal_commit(writer, i, i + 1)
        assert writer.syncs == 5
        writer.close()

    def test_group_commit_batches_syncs(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=4)
        for i in range(8):
            wal_commit(writer, i, i + 1)
        assert writer.syncs == 2
        writer.close()

    def test_async_never_syncs_until_close(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0)
        for i in range(10):
            wal_commit(writer, i, i + 1)
        assert writer.syncs == 0
        writer.close()
        assert writer.syncs == 1

    def test_crash_truncates_to_last_sync(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=2)
        wal_commit(writer, 1, 1)  # pending, not synced
        wal_commit(writer, 2, 2)  # triggers sync — 2 commits durable
        wal_commit(writer, 3, 3)  # pending again
        writer.crash()
        assert count_records(path) == 2

    def test_crash_before_any_sync_empties_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0)
        writer.log_insert(1, 1, [1])
        writer.crash()
        assert count_records(path) == 0

    def test_append_to_existing_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=1)
        wal_commit(writer, 1, 1)
        writer.close()
        writer = LogWriter(path, group_size=1)
        wal_commit(writer, 2, 2)
        writer.close()
        assert count_records(path) == 2

    def test_ddl_always_synced(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0)
        writer.log_create_table(1, "t", b"s")
        assert writer.syncs == 1
        writer.close()

    def test_lsn_tracks_bytes(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=1)
        assert writer.lsn == 0
        wal_commit(writer, 1, 1)
        assert writer.lsn == os.path.getsize(path)
        writer.close()

    def test_negative_group_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            LogWriter(str(tmp_path / "w.log"), group_size=-1)


class TestCommitTimeLogging:
    """The file holds committed work only: a transaction reaches it at
    ``append_commit``, as one contiguous group, and never otherwise."""

    def test_staged_frames_are_invisible_until_commit(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0)
        writer.log_insert_many(7, 1, 0, [(1, 2), ("a", "b")])
        writer.log_invalidate(7, 1, 5)
        assert writer.flush_to_os() == 0
        assert list(read_log(path)) == []
        assert writer.records_written == 0
        end = writer.append_commit(7, 3)
        assert writer.flush_to_os() == end == os.path.getsize(path)
        assert [r for r, _ in read_log(path)] == [
            InsertManyRecord(1, 0, ((1, 2), ("a", "b"))),
            InvalidateRecord(1, 5),
            CommitRecord(3),
        ]
        assert writer.records_written == 3
        writer.close()

    def test_abort_leaves_the_file_unchanged(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0)
        wal_commit(writer, 1, 1)
        before = writer.flush_to_os()
        writer.log_insert_many(2, 1, 0, [(1,), ("ghost",)])
        writer.log_invalidate(2, 1, 9)
        writer.log_abort(2)
        writer.log_abort(3)  # a transaction that staged nothing
        assert writer.flush_to_os() == before == os.path.getsize(path)
        # ...and the tid is free to be used again: nothing was kept.
        writer.append_commit(2, 2)
        writer.close()
        assert [r for r, _ in read_log(path)] == [CommitRecord(1), CommitRecord(2)]

    def test_groups_are_contiguous_under_racing_committers(self, tmp_path):
        """8 threads stage and commit 3-frame transactions while a ninth
        appends merge records: every group reaches the file whole — its
        frames adjacent, closed by its own commit record."""
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=0)
        per_thread = 60
        cids = iter(range(1, 8 * per_thread + 1))
        cid_lock = threading.Lock()

        def committer(worker: int) -> None:
            for k in range(per_thread):
                tid = worker * per_thread + k + 1
                # Table id = tid, so the frames name their transaction.
                writer.log_insert_many(tid, tid, k, [(k,), (f"w{worker}",)])
                writer.log_invalidate(tid, tid, k)
                with cid_lock:  # the manager's commit critical section
                    writer.append_commit(tid, next(cids))

        def merger() -> None:
            for k in range(per_thread):
                writer.log_merge(10_000 + k, 0, [], [])

        threads = [
            threading.Thread(target=committer, args=(w,)) for w in range(8)
        ] + [threading.Thread(target=merger)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        writer.close()
        records = [
            r for r, _ in read_log(path) if not isinstance(r, MergeRecord)
        ]
        assert len(records) == 3 * 8 * per_thread
        seen_cids = []
        for i in range(0, len(records), 3):
            insert, invalidate, commit = records[i : i + 3]
            assert isinstance(insert, InsertManyRecord)
            assert isinstance(invalidate, InvalidateRecord)
            assert insert.table_id == invalidate.table_id
            seen_cids.append(commit.cid)
        assert seen_cids == sorted(seen_cids)  # groups are in commit order


class TestReader:
    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_log(str(tmp_path / "absent.log"))) == []

    def test_start_lsn_skips_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=1)
        wal_commit(writer, 1, 1)
        middle = writer.lsn
        wal_commit(writer, 2, 2)
        writer.close()
        records = [r for r, _ in read_log(path, start_lsn=middle)]
        assert records == [CommitRecord(2)]

    def test_stops_at_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=1)
        wal_commit(writer, 1, 1)
        writer.close()
        with open(path, "ab") as f:
            f.write(b"\x50\x00\x00\x00garbage")
        assert count_records(path) == 1

    def test_end_lsn_usable_as_resume_point(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = LogWriter(path, group_size=1)
        wal_commit(writer, 1, 1)
        wal_commit(writer, 2, 2)
        writer.close()
        pairs = list(read_log(path))
        __, first_end = pairs[0]
        resumed = [r for r, _ in read_log(path, start_lsn=first_end)]
        assert resumed == [CommitRecord(2)]
