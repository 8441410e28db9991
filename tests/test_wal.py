"""Unit tests for log records, writer, and reader."""

import os
import struct
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.wal.reader import count_records, read_log
from repro.wal.records import (
    CommitRecord,
    CreateIndexRecord,
    CreateTableRecord,
    InsertManyRecord,
    InsertRecord,
    InvalidateRecord,
    MergeRecord,
    _decode_cell,
    _decode_column,
    _encode_cell,
    _encode_column,
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
    CreateIndexRecord(4, "colümn"),
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


#: One-row ``InsertManyRecord(7, 41, ((value,),))`` frames exactly as the
#: commit before the one-row codec wrote them (PR 18, array code only).
GOLDEN_ONE_ROW = [
    (None, "19000000434f569307070000000000000029000000000000000100000001008000"),
    (-1, "21000000eab41a89070700000000000000290000000000000001000000010000"
         "01ffffffffffffffff"),
    (2**63 - 1, "21000000ca37a264070700000000000000290000000000000001000000"
                "01000001ffffffffffffff7f"),
    (-(2**63), "21000000bf37c4200707000000000000002900000000000000010000000"
               "10000010000000000000080"),
    (3.25, "210000004021c27807070000000000000029000000000000000100000001000"
           "0020000000000000a40"),
    (float("inf"), "210000004a05f7200707000000000000002900000000000000010000"
                   "0001000002000000000000f07f"),
    ("", "1d00000016b4d40f0707000000000000002900000000000000010000000100000"
         "300000000"),
    ("αβγ-✓", "2700000059427cab07070000000000000029000000000000000100000001"
               "0000030a000000ceb1ceb2ceb32de29c93"),
]

_cells = st.one_of(
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)


def _outcome(fn, *args):
    """What ``fn`` answers, or the class of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


class TestOneRowCodec:
    """A one-row record is written and read without the bitmap arrays,
    and nobody can tell: the frames are the array code's byte for byte,
    so either commit replays the other's log."""

    @pytest.mark.parametrize("value,frame", GOLDEN_ONE_ROW, ids=repr)
    def test_golden_frames(self, value, frame):
        record = InsertManyRecord(7, 41, ((value,),))
        assert encode_record(record).hex() == frame
        assert decode_record(bytes.fromhex(frame), 0) == (record, len(frame) // 2)

    def test_golden_mixed_row(self):
        record = InsertManyRecord(3, 12, ((5,), (None,), ("g7",), (-0.5,)))
        frame = (
            "3500000010ce896b0703000000000000000c00000000000000010000000400"
            "00010500000000000000800000030200000067370002000000000000e0bf"
        )
        assert encode_record(record).hex() == frame
        assert decode_record(bytes.fromhex(frame), 0)[0] == record

    @settings(max_examples=300, deadline=None)
    @given(value=_cells)
    def test_encodes_as_the_array_code_does(self, value):
        assert _encode_cell(value) == _encode_column((value,), 1)
        assert _decode_cell(_encode_cell(value), 0) == ((value,), len(_encode_cell(value)))

    def test_nan_keeps_its_bits(self):
        nan = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
        assert _encode_cell(nan) == _encode_column((nan,), 1)
        assert _encode_cell(nan).endswith(bytes.fromhex("010000000000f87f"))

    @pytest.mark.parametrize("value", [True, 2**63, -(2**63) - 1, b"x", 1 + 2j])
    def test_rejects_what_the_array_code_rejects(self, value):
        expected = _outcome(_encode_column, (value,), 1)
        assert isinstance(expected, type)
        assert _outcome(_encode_cell, value) is expected

    @settings(max_examples=500, deadline=None)
    @given(
        payload=st.one_of(
            st.binary(max_size=16),
            # A plausible column: any bitmap byte, any kind (two of them
            # unassigned), then a body of any length — cut short,
            # over-long, or a string length that overshoots.
            st.builds(
                lambda bitmap, kind, body: bytes([bitmap, kind]) + body,
                st.integers(0, 255),
                st.integers(0, 5),
                st.binary(max_size=14),
            ),
            st.builds(
                lambda value, cut: _encode_cell(value)[:cut],
                _cells,
                st.integers(0, 20),
            ),
        ),
        pad=st.integers(0, 3),
    )
    def test_decodes_and_fails_as_the_array_code_does(self, payload, pad):
        payload = b"\xee" * pad + payload
        expected = _outcome(_decode_column, payload, pad, 1)
        assert _outcome(_decode_cell, payload, pad) == expected

    def test_truncated_and_wrong_kind_frames_raise(self):
        whole = _encode_cell(7)
        for cut in (b"", whole[:2], whole[:-1]):
            with pytest.raises(ValueError):
                _decode_cell(cut, 0)
        with pytest.raises(ValueError, match="bad column kind 9"):
            _decode_cell(b"\x00\x09" + bytes(8), 0)
        with pytest.raises(ValueError, match="null column kind with non-null"):
            _decode_cell(b"\x00\x00", 0)

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
