"""Binary log record formats.

Every record is one :mod:`repro.frame` frame whose payload starts with
a u8 record type. The CRC detects the torn tail a crash leaves behind;
replay stops at the first bad frame. Values are serialised
self-describingly (a kind byte per column), so replay does not need the
schema in hand to parse a record.

No record names a transaction: its operation records sit in the file
directly before its commit record (``wal/writer.py`` writes such a
*group* whole), every insert names the delta position it occupies and
the commit record carries the commit id.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro import frame
from repro.frame import FrameDecoder, FrameError
from repro.storage.types import Value

TYPE_INSERT = 1
TYPE_INVALIDATE = 2
TYPE_COMMIT = 3
# 4 is unassigned: the log holds committed work only, so nothing records
# an abort.
TYPE_CREATE_TABLE = 5
TYPE_DROP_TABLE = 6
TYPE_INSERT_MANY = 7
TYPE_MERGE = 8
TYPE_CREATE_INDEX = 9

#: The log's frame cap, shared by both ends: the reader takes a longer
#: length prefix for torn-tail garbage, so the writer never writes one —
#: it splits oversized batches and refuses unsplittable records.
MAX_RECORD_BYTES = 64 * 1024 * 1024


class RecordTooLarge(FrameError):
    """A single record's frame would exceed :data:`MAX_RECORD_BYTES`.

    Raised at append time, before the transaction is acknowledged: a
    larger frame would commit successfully but be unreplayable at
    recovery (the reader rejects it as garbage), silently truncating
    everything logged after it.
    """

_KIND_NULL = 0
_KIND_INT = 1
_KIND_FLOAT = 2
_KIND_STR = 3


@dataclass(frozen=True)
class InsertRecord:
    tid: int
    table_id: int
    values: tuple


@dataclass(frozen=True)
class InsertManyRecord:
    """One batched insert: ``columns`` holds per-column value tuples
    (column-major), so numerics serialise as packed arrays with one
    null bitmap per column instead of a kind byte per cell. The rows
    occupy delta positions ``first_row .. first_row + row_count``."""

    table_id: int
    first_row: int
    columns: tuple  # tuple[tuple[Value, ...], ...]

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0


@dataclass(frozen=True)
class InvalidateRecord:
    table_id: int
    ref: int


@dataclass(frozen=True)
class CommitRecord:
    """Closes the group of operation records written just before it."""

    cid: int


@dataclass(frozen=True)
class CreateTableRecord:
    table_id: int
    name: str
    schema_blob: bytes


@dataclass(frozen=True)
class DropTableRecord:
    table_id: int


@dataclass(frozen=True)
class CreateIndexRecord:
    table_id: int
    column: str


@dataclass(frozen=True)
class MergeRecord:
    """One online-merge cutover: enough to repeat the fold at replay.

    ``main_mask``/``delta_mask`` are the survivor masks the fold ran
    from (bit-packed on the wire); ``watermark`` is the frozen delta row
    count — rows past it were re-encoded into the fresh delta. Replay
    reaches this record with exactly the MVCC state the cutover saw
    (every transaction with operations on the table committed, so its
    group is in the log, or aborted before it), so re-running the fold
    from the masks reproduces row placement deterministically.
    """

    table_id: int
    watermark: int
    main_mask: tuple  # tuple[bool, ...]
    delta_mask: tuple  # tuple[bool, ...]


LogRecord = Union[
    InsertRecord,
    InsertManyRecord,
    InvalidateRecord,
    CommitRecord,
    CreateTableRecord,
    DropTableRecord,
    CreateIndexRecord,
    MergeRecord,
]


def _encode_column(values: Sequence[Value], n: int) -> bytes:
    """Serialise one column: null bitmap + kind byte + packed values."""
    null_mask = np.fromiter((v is None for v in values), dtype=bool, count=n)
    parts = [np.packbits(null_mask).tobytes()]
    non_null = [v for v in values if v is not None]
    if any(isinstance(v, bool) for v in non_null):
        raise TypeError("bool values are not loggable")
    if not non_null:
        parts.append(struct.pack("<B", _KIND_NULL))
    elif all(isinstance(v, int) for v in non_null):
        parts.append(struct.pack("<B", _KIND_INT))
        parts.append(np.asarray(non_null, dtype="<i8").tobytes())
    elif all(isinstance(v, float) for v in non_null):
        parts.append(struct.pack("<B", _KIND_FLOAT))
        parts.append(np.asarray(non_null, dtype="<f8").tobytes())
    elif all(isinstance(v, str) for v in non_null):
        parts.append(struct.pack("<B", _KIND_STR))
        for v in non_null:
            raw = v.encode("utf-8")
            parts.append(struct.pack("<I", len(raw)))
            parts.append(raw)
    else:
        raise TypeError("mixed or unsupported value types in column")
    return b"".join(parts)


def _decode_column(payload: bytes, pos: int, n: int) -> tuple[tuple, int]:
    bitmap_bytes = (n + 7) // 8
    null_mask = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8, count=bitmap_bytes, offset=pos),
        count=n,
    ).astype(bool)
    pos += bitmap_bytes
    (kind,) = struct.unpack_from("<B", payload, pos)
    pos += 1
    k = n - int(np.count_nonzero(null_mask))
    if kind == _KIND_NULL:
        if k:
            raise ValueError("null column kind with non-null rows")
        return (None,) * n, pos
    if kind == _KIND_INT:
        vals = np.frombuffer(payload, dtype="<i8", count=k, offset=pos).tolist()
        pos += 8 * k
    elif kind == _KIND_FLOAT:
        vals = np.frombuffer(payload, dtype="<f8", count=k, offset=pos).tolist()
        pos += 8 * k
    elif kind == _KIND_STR:
        vals = []
        for _ in range(k):
            (length,) = struct.unpack_from("<I", payload, pos)
            pos += 4
            vals.append(payload[pos : pos + length].decode("utf-8"))
            pos += length
    else:
        raise ValueError(f"bad column kind {kind}")
    if k == n:
        return tuple(vals), pos
    out: list = [None] * n
    for i, v in zip(np.flatnonzero(~null_mask).tolist(), vals):
        out[i] = v
    return tuple(out), pos


def _encode_cell(v: Value) -> bytes:
    """A one-row column: :func:`_encode_column`'s bytes, by ``struct``."""
    if v is None:
        return b"\x80\x00"
    if isinstance(v, bool):
        raise TypeError("bool values are not loggable")
    if isinstance(v, int):
        if not -(1 << 63) <= v < 1 << 63:
            raise OverflowError(f"Python integer {v} out of bounds for int64")
        return struct.pack("<BBq", 0, _KIND_INT, v)
    if isinstance(v, float):
        return struct.pack("<BBd", 0, _KIND_FLOAT, v)
    if isinstance(v, str):
        raw = v.encode("utf-8")
        return struct.pack("<BBI", 0, _KIND_STR, len(raw)) + raw
    raise TypeError("mixed or unsupported value types in column")


def _decode_cell(payload: bytes, pos: int) -> tuple[tuple, int]:
    """A one-row column: :func:`_decode_column`'s answer — and its
    error, case by case — without the bitmap arrays."""
    if pos >= len(payload):
        raise ValueError("buffer is smaller than requested size")
    null = payload[pos] & 0x80  # the row is the bitmap byte's top bit
    (kind,) = struct.unpack_from("<B", payload, pos + 1)
    pos += 2
    if kind == _KIND_NULL:
        if not null:
            raise ValueError("null column kind with non-null rows")
    elif kind not in (_KIND_INT, _KIND_FLOAT, _KIND_STR):
        raise ValueError(f"bad column kind {kind}")
    if null:
        return (None,), pos
    if kind == _KIND_STR:
        (length,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        return (payload[pos : pos + length].decode("utf-8"),), pos + length
    if len(payload) - pos < 8:
        raise ValueError("buffer is smaller than requested size")
    fmt = "<q" if kind == _KIND_INT else "<d"
    return struct.unpack_from(fmt, payload, pos), pos + 8


def _payload(record: LogRecord) -> bytes:
    if isinstance(record, InsertRecord):
        return struct.pack(
            "<BQQH", TYPE_INSERT, record.tid, record.table_id, len(record.values)
        ) + b"".join(map(_encode_cell, record.values))
    if isinstance(record, InsertManyRecord):
        n = record.row_count
        if any(len(col) != n for col in record.columns):
            raise ValueError("ragged insert-many record")
        parts = [
            struct.pack(
                "<BQQIH",
                TYPE_INSERT_MANY,
                record.table_id,
                record.first_row,
                n,
                len(record.columns),
            )
        ]
        if n == 1:
            parts.extend(_encode_cell(col[0]) for col in record.columns)
        else:
            parts.extend(_encode_column(col, n) for col in record.columns)
        return b"".join(parts)
    if isinstance(record, InvalidateRecord):
        return struct.pack(
            "<BQQ", TYPE_INVALIDATE, record.table_id, record.ref
        )
    if isinstance(record, CommitRecord):
        return struct.pack("<BQ", TYPE_COMMIT, record.cid)
    if isinstance(record, CreateTableRecord):
        name_raw = record.name.encode("utf-8")
        return (
            struct.pack("<BQH", TYPE_CREATE_TABLE, record.table_id, len(name_raw))
            + name_raw
            + struct.pack("<I", len(record.schema_blob))
            + record.schema_blob
        )
    if isinstance(record, DropTableRecord):
        return struct.pack("<BQ", TYPE_DROP_TABLE, record.table_id)
    if isinstance(record, CreateIndexRecord):
        column = record.column.encode("utf-8")
        return (
            struct.pack("<BQH", TYPE_CREATE_INDEX, record.table_id, len(column))
            + column
        )
    if isinstance(record, MergeRecord):
        main = np.asarray(record.main_mask, dtype=bool)
        delta = np.asarray(record.delta_mask, dtype=bool)
        return (
            struct.pack(
                "<BQQQQ",
                TYPE_MERGE,
                record.table_id,
                record.watermark,
                main.size,
                delta.size,
            )
            + np.packbits(main).tobytes()
            + np.packbits(delta).tobytes()
        )
    raise TypeError(f"unknown record {record!r}")


def frame_payload(payload: bytes, cap: int = MAX_RECORD_BYTES) -> bytes:
    """Frame one payload for appending to a log: length, CRC, body. A
    payload over ``cap`` raises :class:`RecordTooLarge`."""
    return frame.encode(payload, cap, RecordTooLarge)


def encode_record(record: LogRecord, cap: int = MAX_RECORD_BYTES) -> bytes:
    """Frame a record for appending to the log."""
    return frame_payload(_payload(record), cap)


def peek_payload(payload: bytes) -> tuple[int, int, int]:
    """Routing header of a payload without decoding its body.

    Returns ``(rtype, table_id, cid)`` from the fixed-offset prefix; the
    field a type does not carry comes back 0. The replayer routes raw
    payloads with this, leaving the expensive value/mask decoding
    (``decode_payload``) to its drain. The scalar ``TYPE_INSERT`` names
    no position, so it raises here like any unknown type.
    """
    rtype, word = struct.unpack_from("<BQ", payload, 0)
    if rtype == TYPE_COMMIT:
        return rtype, 0, word
    if rtype in (
        TYPE_INSERT_MANY,
        TYPE_INVALIDATE,
        TYPE_CREATE_TABLE,
        TYPE_DROP_TABLE,
        TYPE_CREATE_INDEX,
        TYPE_MERGE,
    ):
        return rtype, word, 0
    raise ValueError(f"unreplayable record type {rtype}")


def decode_payload(payload: bytes) -> LogRecord:
    """Parse one (already CRC-checked) payload; bytes that do not parse
    raise :class:`~repro.frame.FrameError`."""
    try:
        (rtype,) = struct.unpack_from("<B", payload, 0)
        if rtype == TYPE_INSERT:
            tid, table_id, count = struct.unpack_from("<QQH", payload, 1)
            pos = 19
            values = []
            for _ in range(count):
                (value,), pos = _decode_cell(payload, pos)
                values.append(value)
            return InsertRecord(tid, table_id, tuple(values))
        if rtype == TYPE_INSERT_MANY:
            table_id, first_row, n, ncols = struct.unpack_from("<QQIH", payload, 1)
            pos = 23
            columns = []
            for _ in range(ncols):
                if n == 1:
                    col, pos = _decode_cell(payload, pos)
                else:
                    col, pos = _decode_column(payload, pos, n)
                columns.append(col)
            return InsertManyRecord(table_id, first_row, tuple(columns))
        if rtype == TYPE_INVALIDATE:
            table_id, ref = struct.unpack_from("<QQ", payload, 1)
            return InvalidateRecord(table_id, ref)
        if rtype == TYPE_COMMIT:
            (cid,) = struct.unpack_from("<Q", payload, 1)
            return CommitRecord(cid)
        if rtype == TYPE_CREATE_TABLE:
            table_id, name_len = struct.unpack_from("<QH", payload, 1)
            pos = 11
            name = payload[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (blob_len,) = struct.unpack_from("<I", payload, pos)
            pos += 4
            return CreateTableRecord(table_id, name, payload[pos : pos + blob_len])
        if rtype == TYPE_DROP_TABLE:
            (table_id,) = struct.unpack_from("<Q", payload, 1)
            return DropTableRecord(table_id)
        if rtype == TYPE_CREATE_INDEX:
            table_id, name_len = struct.unpack_from("<QH", payload, 1)
            column = payload[11 : 11 + name_len].decode("utf-8")
            return CreateIndexRecord(table_id, column)
        if rtype == TYPE_MERGE:
            table_id, watermark, n_main, n_delta = struct.unpack_from(
                "<QQQQ", payload, 1
            )
            pos = 33
            main_bytes = (n_main + 7) // 8
            delta_bytes = (n_delta + 7) // 8

            def unpack_mask(offset: int, count: int, nbytes: int) -> tuple:
                bits = np.unpackbits(
                    np.frombuffer(payload, np.uint8, count=nbytes, offset=offset),
                    count=count,
                )
                return tuple(bits.astype(bool).tolist())

            return MergeRecord(
                table_id,
                watermark,
                unpack_mask(pos, n_main, main_bytes),
                unpack_mask(pos + main_bytes, n_delta, delta_bytes),
            )
        raise ValueError(f"bad record type {rtype}")
    except frame.PARSE_ERRORS as exc:
        raise FrameError(f"undecodable log record: {exc}") from None


def decode_record(buffer: bytes, pos: int) -> tuple[LogRecord, int] | None:
    """Decode the frame at ``pos``.

    Returns (record, next_pos), or None when the frame is truncated or
    fails its CRC — the torn tail of a crashed log.
    """
    # Feed this frame only: the length in its header bounds the copy.
    head = buffer[pos : pos + frame.HEADER_BYTES]
    length = frame.HEADER.unpack(head)[0] if len(head) == frame.HEADER_BYTES else 0
    decoder = FrameDecoder(MAX_RECORD_BYTES, pos)
    decoder.feed(buffer[pos : pos + frame.HEADER_BYTES + length])
    try:
        payload = next(decoder.frames(), None)
    except FrameError:
        return None
    if payload is None:
        return None
    return decode_payload(payload), pos + frame.HEADER_BYTES + len(payload)
