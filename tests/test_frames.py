"""One frame, one typed error: the log, the wire and the checkpoint chain.

Every byte stream the engine writes is a run of :mod:`repro.frame`
frames, and every decoder of those bytes is total: it answers a value
or raises :class:`~repro.frame.FrameError` (``ProtocolError`` on the
wire), never another exception. A checkpoint file is one frame whose
payload holds its fixed fields, so its CRC covers every byte a reader
trusts.
"""

from __future__ import annotations

import os
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, DataType, DurabilityMode, EngineConfig, frame
from repro.frame import FrameDecoder, FrameError
from repro.server import protocol
from repro.server.protocol import Op, ProtocolError, Status
from repro.storage.backend import VolatileBackend
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.wal.checkpoint import (
    CheckpointChain,
    chain_dir,
    read_manifest,
    read_segment,
    snapshot_table,
    write_manifest,
    write_segment,
)
from repro.wal.reader import read_log
from repro.wal.records import (
    CommitRecord,
    CreateIndexRecord,
    CreateTableRecord,
    DropTableRecord,
    InsertManyRecord,
    InsertRecord,
    InvalidateRecord,
    LogRecord,
    MergeRecord,
    _payload,
    decode_payload,
)

from tests.conftest import commit_rows

SCHEMA = Schema.of(id=DataType.INT64, name=DataType.STRING, amount=DataType.FLOAT64)

#: A NaN with payload bits: a decoder that canonicalises NaN loses them.
ODD_NAN = struct.unpack("<d", bytes.fromhex("0100000000f8ff7f"))[0]


def _bits(value) -> object:
    return struct.pack("<d", value).hex() if isinstance(value, float) else value


def _table(table_id: int = 3, rows: int = 6) -> Table:
    table = Table.create(table_id, f"t{table_id}", SCHEMA, VolatileBackend())
    commit_rows(
        table,
        [[i, f"n{i % 3}", None if i % 4 == 0 else i * 0.5] for i in range(rows)],
        cid=1,
    )
    return table


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# ----------------------------------------------------------------------
# The frame
# ----------------------------------------------------------------------


class TestFrame:
    def test_a_short_frame_waits_for_its_bytes(self):
        data = frame.encode(b"payload", 64)
        decoder = FrameDecoder(64)
        decoder.feed(data[:-1])
        assert list(decoder.frames()) == []
        assert decoder.pending_bytes == len(data) - 1
        decoder.feed(data[-1:])
        assert list(decoder.frames()) == [b"payload"]
        assert decoder.pending_bytes == 0

    def test_a_crc_mismatch_names_its_reason_and_offset(self):
        good = frame.encode(b"ok", 64)
        bad = _flip(frame.encode(b"bad", 64), 8 * frame.HEADER_BYTES)
        decoder = FrameDecoder(64, offset=100)
        decoder.feed(good + bad)
        frames = decoder.frames()
        assert next(frames) == b"ok"
        with pytest.raises(FrameError, match="CRC") as caught:
            next(frames)
        assert (caught.value.reason, caught.value.offset) == (
            frame.CRC,
            100 + len(good),
        )

    def test_an_over_cap_length_is_refused_from_its_header(self):
        decoder = FrameDecoder(16)
        decoder.feed(frame.HEADER.pack(17, 0))
        with pytest.raises(FrameError, match="cap") as caught:
            list(decoder.frames())
        assert (caught.value.reason, caught.value.offset) == (frame.OVERSIZE, 0)
        with pytest.raises(FrameError, match="cap"):
            frame.encode(bytes(17), 16)

    def test_the_wire_error_is_the_typed_error(self):
        assert issubclass(ProtocolError, FrameError)
        assert issubclass(FrameError, ValueError)

    def test_wire_and_log_frames_are_the_same_bytes(self):
        payload = _payload(CommitRecord(7))
        assert protocol.encode_frame(payload) == frame.encode(payload, 1 << 20)

    def test_patching_the_wire_decoder_leaves_log_reads_alone(
        self, tmp_path, monkeypatch
    ):
        """A tracer wraps ``protocol.FrameDecoder.frames`` by name; the
        log reader's decoder must not pick the wrapper up."""
        calls = []
        original = protocol.FrameDecoder.frames

        def traced(self):
            calls.append(type(self))
            return original(self)

        monkeypatch.setattr(protocol.FrameDecoder, "frames", traced)
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as f:
            f.write(frame.encode(_payload(CommitRecord(1)), 1 << 20))
        assert [r for r, _ in read_log(path)] == [CommitRecord(1)]
        assert calls == []
        wire = protocol.FrameDecoder()
        wire.feed(protocol.encode_frame(b"x"))
        assert list(wire.frames()) == [b"x"]
        assert calls == [protocol.FrameDecoder]


# ----------------------------------------------------------------------
# Every decoder is total: a value or the one typed error
# ----------------------------------------------------------------------

_RECORDS: list[LogRecord] = [
    InsertRecord(1, 2, (5, "text", 2.5, None)),
    InsertManyRecord(7, 41, ((1, None, 3), ("a", "bc", None), (0.5, 1.5, -0.0))),
    InsertManyRecord(7, 44, ((None,), ("g7",))),
    InvalidateRecord(3, 2**40 + 9),
    CommitRecord(12),
    CreateTableRecord(4, "orders", SCHEMA.to_bytes()),
    DropTableRecord(4),
    CreateIndexRecord(4, "amount"),
    MergeRecord(3, 10, (True, False, True), (False,) * 9),
]


def _total(fn, data, error=FrameError):
    """``fn(data)``'s answer, or None when it raised ``error``."""
    try:
        return fn(data)
    except error:
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=200), chunk=st.integers(1, 40))
def test_frame_decoder_is_total_over_junk(data, chunk):
    decoder = FrameDecoder(1 << 16)
    try:
        for pos in range(0, len(data), chunk):
            decoder.feed(data[pos : pos + chunk])
            list(decoder.frames())
    except FrameError as exc:
        assert exc.reason in (frame.CRC, frame.OVERSIZE)


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, len(_RECORDS) - 1), bit=st.integers(0, 10**6))
def test_frame_decoder_rejects_every_flipped_bit(index, bit):
    data = frame.encode(_payload(_RECORDS[index]), 1 << 16)
    decoder = FrameDecoder(1 << 16)
    decoder.feed(_flip(data, bit % (8 * len(data))))
    try:
        payloads = list(decoder.frames())
    except FrameError:
        return
    # A flip in the length field leaves a frame that is short or ends
    # early: never one that decodes as the record.
    assert payloads != [_payload(_RECORDS[index])]


@settings(max_examples=500, deadline=None)
@given(data=st.binary(max_size=120))
def test_decode_payload_is_total_over_junk(data):
    _total(decode_payload, data)


@settings(max_examples=500, deadline=None)
@given(index=st.integers(0, len(_RECORDS) - 1), bit=st.integers(0, 10**6))
def test_decode_payload_is_total_over_flipped_records(index, bit):
    payload = _payload(_RECORDS[index])
    _total(decode_payload, _flip(payload, bit % (8 * len(payload))))


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300))
def test_wire_unpack_is_total_over_junk(data):
    _total(protocol.unpack_request, data, ProtocolError)
    _total(protocol.unpack_response, data, ProtocolError)


_WIRE_REQUEST = protocol.pack_request(
    Op.QUERY, 9, "acme", {"table": "t", "where": ["eq", "id", 3], "n": [1.5, None]}
)[frame.HEADER_BYTES :]
_WIRE_RESPONSE = protocol.pack_response(
    Op.QUERY, 9, Status.OK, {"rows": [{"id": 3, "s": "x"}], "ok": True}
)[frame.HEADER_BYTES :]


@settings(max_examples=300, deadline=None)
@given(bit=st.integers(0, 10**6))
def test_wire_unpack_is_total_over_flipped_messages(bit):
    _total(
        protocol.unpack_request,
        _flip(_WIRE_REQUEST, bit % (8 * len(_WIRE_REQUEST))),
        ProtocolError,
    )
    _total(
        protocol.unpack_response,
        _flip(_WIRE_RESPONSE, bit % (8 * len(_WIRE_RESPONSE))),
        ProtocolError,
    )


_PACKED_REQUEST = protocol.pack_request(
    Op.INSERT_MANY,
    9,
    "acme",
    {
        "table": "t",
        "columns": {
            "id": array("q", [1, -2, 2**63 - 1]),
            "x": array("d", [ODD_NAN, -0.0]),
        },
    },
)[frame.HEADER_BYTES :]


@settings(max_examples=500, deadline=None)
@given(
    kind=st.integers(0, 255),
    count=st.integers(0, 2**32 - 1),
    rest=st.binary(max_size=80),
)
def test_a_packed_column_is_total_over_arbitrary_bytes(kind, count, rest):
    """Any kind byte, any count, any bytes after: a list of ``count``
    values read from exactly ``8 * count`` bytes, or ``ProtocolError``."""
    data = bytes([protocol._T_PACKED, kind]) + struct.pack("<I", count) + rest
    value = _total(protocol.decode_body, data, ProtocolError)
    if value is not None:
        assert kind in b"qd" and len(rest) == 8 * count and len(value) == count
        assert {type(v) for v in value} <= {int if kind == ord("q") else float}


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=120))
def test_a_packed_tag_before_junk_is_total(data):
    _total(protocol.decode_body, bytes([protocol._T_PACKED]) + data, ProtocolError)


def test_a_packed_column_cut_anywhere_is_refused():
    """Every prefix of a packed column — in its kind, its count or its
    values — is a ``ProtocolError``, and so is an unknown kind."""
    whole = bytes(protocol.encode_value(array("d", [ODD_NAN, -0.0, 2.5])))
    assert [_bits(v) for v in protocol.decode_body(whole)] == [
        _bits(ODD_NAN), _bits(-0.0), _bits(2.5)
    ]
    for cut in range(len(whole)):
        with pytest.raises(ProtocolError):
            protocol.decode_body(whole[:cut])
    for kind in set(range(256)) - set(b"qd"):
        with pytest.raises(ProtocolError, match="packed column kind"):
            protocol.decode_body(whole[:1] + bytes([kind]) + whole[2:])


@settings(max_examples=300, deadline=None)
@given(bit=st.integers(0, 10**6))
def test_wire_unpack_is_total_over_flipped_packed_columns(bit):
    _total(
        protocol.unpack_request,
        _flip(_PACKED_REQUEST, bit % (8 * len(_PACKED_REQUEST))),
        ProtocolError,
    )


def _read_bytes(where, reader, data: bytes):
    path = str(where / "fuzz.ckpt")
    with open(path, "wb") as f:
        f.write(data)
    return _total(reader, path)


_SEGMENT_PAYLOAD_PREFIX = struct.pack("<Q", 0x48595243_4B534547)
_MANIFEST_PAYLOAD_PREFIX = struct.pack("<Q", 0x48595243_4B4D414E)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory the fuzzed files are written to (hypothesis runs many
    examples per test, so not the per-test ``tmp_path``)."""
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint_files(tmp_path_factory):
    """A valid segment and manifest, as bytes."""
    where = tmp_path_factory.mktemp("ckpt")
    write_segment(str(where / "seg"), [snapshot_table(_table(3)), snapshot_table(_table(7))])
    write_manifest(str(where / "man"), 41, 4096, 9, {3: 1, 7: 1, 8: 1})
    return {
        read_segment: (where / "seg").read_bytes(),
        read_manifest: (where / "man").read_bytes(),
    }


@pytest.mark.parametrize("reader", [read_segment, read_manifest])
@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=200))
def test_checkpoint_readers_are_total_over_junk(scratch, reader, data):
    _read_bytes(scratch, reader, data)
    # Junk behind a valid CRC and magic reaches the payload parser.
    prefix = (
        _SEGMENT_PAYLOAD_PREFIX if reader is read_segment else _MANIFEST_PAYLOAD_PREFIX
    )
    _read_bytes(scratch, reader, frame.encode(prefix + data, 1 << 20))


@pytest.mark.parametrize("reader", [read_segment, read_manifest])
@settings(max_examples=150, deadline=None)
@given(bit=st.integers(0, 10**7))
def test_checkpoint_readers_reject_every_flipped_bit(
    scratch, checkpoint_files, reader, bit
):
    data = checkpoint_files[reader]
    assert _read_bytes(scratch, reader, _flip(data, bit % (8 * len(data)))) is None


# ----------------------------------------------------------------------
# A checkpoint's CRC covers its fixed fields
# ----------------------------------------------------------------------

#: Payload offsets of the fixed fields after the magic.
_MANIFEST_FIELDS = range(frame.HEADER_BYTES + 8, frame.HEADER_BYTES + 40)
_SEGMENT_TABLE_COUNT = range(frame.HEADER_BYTES + 8, frame.HEADER_BYTES + 16)


def _poke(path: str, offset: int) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


def _two_links(tmp_path) -> tuple[CheckpointChain, object, object]:
    """A chain of two links whose segments share no table snapshot."""
    chain = CheckpointChain(str(tmp_path / "checkpoints"))
    first, _ = chain.publish([snapshot_table(_table(3))], {}, 5, 100, 4)
    second, _ = chain.publish([snapshot_table(_table(3, rows=9))], {}, 6, 200, 4)
    return chain, first, second


class TestCheckpointHeaderCoverage:
    def test_a_forged_manifest_header_is_rejected(self, tmp_path):
        """One flipped bit of ``lsn`` and an entry count cut to 1: the
        CRC used to cover only the entries, so this read back 'valid'
        with tables 7 and 8 gone and replay starting at the wrong LSN."""
        path = str(tmp_path / "manifest.ckpt")
        write_manifest(path, 41, 4096, 9, {3: 1, 7: 1, 8: 1})
        raw = bytearray(open(path, "rb").read())
        lsn_at, count_at = frame.HEADER_BYTES + 16, frame.HEADER_BYTES + 32
        raw[lsn_at] ^= 0x01
        raw[count_at : count_at + 8] = struct.pack("<Q", 1)
        with open(path, "wb") as f:
            f.write(raw)
        with pytest.raises(FrameError, match="CRC"):
            read_manifest(path)

    @pytest.mark.parametrize("offset", _MANIFEST_FIELDS)
    def test_every_manifest_field_byte_is_covered(self, tmp_path, offset):
        chain, first, second = _two_links(tmp_path)
        path = os.path.join(chain.directory, f"manifest-{second.seq:08d}.ckpt")
        _poke(path, offset)
        with pytest.raises(FrameError):
            read_manifest(path)
        state, snapshots, _ = chain.load()
        assert state == first
        assert snapshots[0].delta_row_count == 6

    @pytest.mark.parametrize("offset", _SEGMENT_TABLE_COUNT)
    def test_every_segment_table_count_byte_is_covered(self, tmp_path, offset):
        chain, first, second = _two_links(tmp_path)
        path = os.path.join(chain.directory, f"seg-{second.seq:08d}.ckpt")
        _poke(path, offset)
        with pytest.raises(FrameError):
            read_segment(path)
        state, snapshots, _ = chain.load()
        assert state == first
        assert snapshots[0].delta_row_count == 6

    @pytest.mark.parametrize("reader", [read_segment, read_manifest])
    def test_trailing_bytes_are_corruption(self, checkpoint_files, tmp_path, reader):
        data = checkpoint_files[reader]
        assert _read_bytes(tmp_path, reader, data) is not None
        with pytest.raises(FrameError, match="trailing"):
            path = str(tmp_path / "trailing.ckpt")
            with open(path, "wb") as f:
                f.write(data + b"\x00")
            reader(path)

    def test_a_manifest_without_index_declarations_is_not_read(self, tmp_path):
        """The layout before the manifest held declarations (entries
        only) ends where they are read: restore replays the whole log."""
        path = str(tmp_path / "db")
        config = EngineConfig(mode=DurabilityMode.LOG)
        db = Database(path, config)
        db.create_table("t", {"id": DataType.INT64})
        db.create_index("t", "id")
        db.insert_many("t", [{"id": i} for i in range(5)])
        db.checkpoint()
        db.close()
        state = CheckpointChain(chain_dir(path)).state()
        manifest = os.path.join(chain_dir(path), f"manifest-{state.seq:08d}.ckpt")
        fields = (state.last_cid, state.lsn, state.next_table_id, len(state.mapping))
        older = struct.pack("<QQQQQ", 0x48595243_4B4D414E, *fields) + b"".join(
            struct.pack("<QQ", *entry) for entry in state.mapping.items()
        )
        with open(manifest, "wb") as f:
            f.write(frame.encode(older, 1 << 20))
        with pytest.raises(FrameError, match="does not parse"):
            read_manifest(manifest)
        db = Database(path, config)
        try:
            assert db.last_recovery.checkpoint_bytes == 0
            assert db.query("t").count == 5
            assert list(db.indexes_on("t")) == ["id"]
        finally:
            db.close()

    def test_a_payload_with_bytes_past_its_fields_is_corruption(self, tmp_path):
        path = str(tmp_path / "manifest.ckpt")
        header = struct.pack("<QQQQQ", 0x48595243_4B4D414E, 1, 2, 3, 0)
        with open(path, "wb") as f:
            f.write(frame.encode(header + bytes(16), 1 << 20))
        with pytest.raises(FrameError, match="trailing"):
            read_manifest(path)


# ----------------------------------------------------------------------
# Every DataType round-trips through the log and through a checkpoint
# ----------------------------------------------------------------------

_ROWS = [
    {"i": None, "f": None, "s": None},
    {"i": 2**63 - 1, "f": ODD_NAN, "s": ""},
    {"i": -(2**63), "f": float("inf"), "s": "\U0001f600 beyond the BMP"},
    {"i": 0, "f": float("-inf"), "s": "ascii"},
    {"i": -1, "f": -0.0, "s": "é中"},
]


def _expected():
    return sorted(
        ({k: _bits(v) for k, v in row.items()} for row in _ROWS),
        key=repr,
    )


@pytest.mark.parametrize(
    "path_taken", ["log_replay", "checkpoint", "merged_checkpoint"]
)
def test_every_datatype_round_trips(tmp_path, path_taken):
    path = str(tmp_path / "db")
    db = Database(path, EngineConfig(mode=DurabilityMode.LOG))
    db.create_table(
        "t", {"i": DataType.INT64, "f": DataType.FLOAT64, "s": DataType.STRING}
    )
    for row in _ROWS:
        db.insert("t", row)
    if path_taken == "merged_checkpoint":
        db.merge("t")
    if path_taken != "log_replay":
        db.checkpoint()
    db.crash(seed=3)
    db = Database(path, EngineConfig(mode=DurabilityMode.LOG))
    try:
        replayed = db.last_recovery.as_dict()["log_records_replayed"]
        assert (replayed > 0) == (path_taken == "log_replay")
        got = [{k: _bits(v) for k, v in row.items()} for row in db.query("t").rows()]
        assert sorted(got, key=repr) == _expected()
    finally:
        db.close()


# ----------------------------------------------------------------------
# A LOG index declaration is durable once create_index returns
# ----------------------------------------------------------------------


def test_an_index_declaration_survives_losing_every_unsynced_byte(tmp_path):
    """The declaration is a synced log record: a crash that keeps none
    of the unsynced bytes reopens with the index."""
    path = str(tmp_path / "db")
    config = EngineConfig(mode=DurabilityMode.LOG, group_commit_size=0)
    db = Database(path, config)
    db.create_table("t", {"id": DataType.INT64})
    db.create_index("t", "id")
    db.crash(survivor_fraction=0)
    db = Database(path, config)
    try:
        assert list(db.indexes_on("t")) == ["id"]
        assert db.query("t").count == 0
    finally:
        db.close()
