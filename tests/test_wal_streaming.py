"""Streaming WAL reader + torn-tail crash model tests.

The reader must decode a multi-MB log in O(chunk) memory and produce
byte-identical results to a whole-file decode; the writer's torn-tail
crash mode must keep the synced prefix intact while leaving partial
records and garbage past it.
"""

import os
import struct
import tracemalloc


from repro.wal.reader import CHUNK_SIZE, MAX_RECORD_BYTES, count_records, read_log
from repro.wal.records import CommitRecord, InsertRecord, decode_record
from repro.wal.writer import LogWriter

from tests.conftest import wal_commit


def _reference_read(path: str, start_lsn: int = 0) -> list:
    """The old slurp-the-whole-file decode, kept as the oracle."""
    with open(path, "rb") as f:
        raw = f.read()
    out = []
    pos = start_lsn
    while True:
        decoded = decode_record(raw, pos)
        if decoded is None:
            return out
        record, end = decoded
        out.append((record, end))
        pos = end


def _write_log(path: str, txns: int) -> None:
    writer = LogWriter(path, group_size=0)
    for i in range(txns):
        writer.log_insert(i, 1, [i, "x" * 200])
        wal_commit(writer, i, i + 1)
    writer.close()


class TestStreamingReader:
    def test_matches_reference_on_multi_mb_log(self, tmp_path):
        path = str(tmp_path / "big.log")
        _write_log(path, 8500)
        assert os.path.getsize(path) > 8 * CHUNK_SIZE  # many window slides
        assert list(read_log(path)) == _reference_read(path)

    def test_memory_stays_bounded_by_chunk_not_file(self, tmp_path):
        path = str(tmp_path / "big.log")
        _write_log(path, 8000)
        size = os.path.getsize(path)
        tracemalloc.start()
        records = sum(1 for _ in read_log(path))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert records == 16000
        assert peak < 4 * CHUNK_SIZE  # sliding window, not a slurp
        assert peak < size / 2

    def test_start_lsn_mid_file_matches_reference(self, tmp_path):
        path = str(tmp_path / "big.log")
        _write_log(path, 3000)
        pairs = _reference_read(path)
        _, resume = pairs[999]
        assert list(read_log(path, start_lsn=resume)) == pairs[1000:]

    def test_end_lsns_are_frame_boundaries(self, tmp_path):
        path = str(tmp_path / "small.log")
        _write_log(path, 3)
        previous = 0
        for record, end in read_log(path):
            # re-decoding from the previous boundary gives this record
            assert list(read_log(path, start_lsn=previous))[0][0] == record
            previous = end
        assert previous == os.path.getsize(path)

    def test_oversized_length_prefix_is_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_log(path, 5)
        with open(path, "ab") as f:
            # A garbage frame claiming a silly length must not make the
            # reader buffer gigabytes before the CRC rejects it.
            f.write(struct.pack("<II", MAX_RECORD_BYTES + 1, 0))
            f.write(b"junk")
        assert count_records(path) == 10

    def test_bad_crc_with_plausible_length_is_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        _write_log(path, 5)
        with open(path, "ab") as f:
            f.write(struct.pack("<II", 10, 0xDEADBEEF) + b"0123456789")
        assert count_records(path) == 10


class TestTornTailCrash:
    def _writer_with_unsynced_tail(self, path: str) -> tuple:
        writer = LogWriter(path, group_size=0)
        writer.log_insert(1, 1, [1, "a"])
        wal_commit(writer, 1, 1)
        writer.sync()
        synced = writer.lsn
        writer.log_insert(2, 1, [2, "b"])  # never synced
        return writer, synced

    def test_zero_survivor_keeps_synced_prefix_only(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer, synced = self._writer_with_unsynced_tail(path)
        writer.crash(survivor_fraction=0.0, seed=3, torn_tail=True)
        # garbage exists past the synced frontier...
        assert os.path.getsize(path) > synced
        # ...but only the synced records decode
        pairs = list(read_log(path))
        assert [r for r, _ in pairs] == [
            InsertRecord(1, 1, (1, "a")),
            CommitRecord(1),
        ]
        assert all(end <= synced for _, end in pairs)

    def test_partial_survivor_never_exposes_partial_record(self, tmp_path):
        for seed in range(8):
            path = str(tmp_path / f"wal-{seed}.log")
            writer, synced = self._writer_with_unsynced_tail(path)
            writer.crash(survivor_fraction=0.5, seed=seed, torn_tail=True)
            # The unsynced record survived only partially: it must be
            # invisible, and the synced prefix must be untouched.
            assert count_records(path) == 2
            assert all(end <= synced for _, end in read_log(path))

    def test_full_survivor_keeps_unsynced_record_before_garbage(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer, _ = self._writer_with_unsynced_tail(path)
        writer.crash(survivor_fraction=1.0, seed=1, torn_tail=True)
        records = [r for r, _ in read_log(path)]
        # the fully-written-back tail record is readable, the trailing
        # garbage stops iteration instead of corrupting it
        assert records == [
            InsertRecord(1, 1, (1, "a")),
            CommitRecord(1),
            InsertRecord(2, 1, (2, "b")),
        ]

    def test_same_seed_same_torn_state(self, tmp_path):
        states = []
        for name in ("a", "b"):
            path = str(tmp_path / f"wal-{name}.log")
            writer, _ = self._writer_with_unsynced_tail(path)
            writer.crash(survivor_fraction=0.5, seed=42, torn_tail=True)
            with open(path, "rb") as f:
                states.append(f.read())
        assert states[0] == states[1]

    def test_clean_truncate_mode_unchanged(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer, synced = self._writer_with_unsynced_tail(path)
        writer.crash()  # default: the old clean-truncate model
        assert os.path.getsize(path) == synced
        assert count_records(path) == 2
