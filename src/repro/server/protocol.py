"""The binary wire protocol: CRC-framed requests and responses.

Frames are :mod:`repro.frame`'s, the code :mod:`repro.wal.reader`
reads the log with, capped at :data:`MAX_FRAME_BYTES`. A truncated
frame waits for more bytes; an oversized length prefix, a CRC mismatch
or a malformed payload raises :class:`ProtocolError` (a
:class:`~repro.frame.FrameError`): the server drops the connection,
the client surfaces the error.

Request payloads::

    u8 opcode | u32 request_id | u16 tenant_len | tenant utf-8 | body

Response payloads::

    u8 opcode (echoed) | u32 request_id | u8 status | body

``body`` is one value in the compact tagged binary encoding below
(:func:`encode_value` / :func:`decode_value`) — NULL, bool, int64,
float64, UTF-8 string, bytes, list, and dict cover every request and
result shape the engine exchanges, including metrics snapshots and
recovery span trees. Errors carry a human-readable message string as
their body and a non-zero :class:`Status` code.

The protocol is versioned: a connection opens with a :data:`Op.HELLO`
carrying :data:`PROTOCOL_VERSION`; the server rejects other versions
with :data:`Status.WRONG_VERSION` and every non-HELLO request on a
un-greeted session with :data:`Status.NEED_HELLO`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional

import numpy as np

from repro import frame
from repro.query.predicate import (
    And,
    Between,
    Eq,
    Ge,
    Gt,
    In,
    IsNull,
    Le,
    Lt,
    Ne,
    Not,
    NotNull,
    Or,
    Predicate,
)

#: Version spoken by this module; bumped on incompatible changes.
PROTOCOL_VERSION = 1

#: Hard per-frame cap — a length prefix beyond this is garbage (or an
#: attack), never a legitimate request.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Deepest list/dict nesting on the wire, far beyond any shape exchanged.
MAX_VALUE_DEPTH = 100

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

FRAME_HEADER_BYTES = frame.HEADER_BYTES


class ProtocolError(frame.FrameError):
    """Malformed frame or payload; the connection cannot continue."""


class Op(IntEnum):
    """Request opcodes."""

    HELLO = 1
    PING = 2
    GOODBYE = 3
    # -- tenant administration (bypass per-tenant admission) -----------
    CREATE_TENANT = 10
    DROP_TENANT = 11
    LIST_TENANTS = 12
    RECOVERY = 13
    METRICS = 14
    # -- data plane (admitted per tenant) -------------------------------
    CREATE_TABLE = 20
    DROP_TABLE = 21
    CREATE_INDEX = 22
    TABLES = 23
    INSERT = 24
    INSERT_MANY = 25
    QUERY = 26
    AGGREGATE = 27
    STATS = 28


#: Ops a session may issue without naming a tenant.
ADMIN_OPS = frozenset(
    {
        Op.HELLO,
        Op.PING,
        Op.GOODBYE,
        Op.CREATE_TENANT,
        Op.DROP_TENANT,
        Op.LIST_TENANTS,
        Op.RECOVERY,
        Op.METRICS,
    }
)


class Status(IntEnum):
    """Response status codes (``OK`` = 0; everything else an error)."""

    OK = 0
    BAD_REQUEST = 1
    WRONG_VERSION = 2
    NEED_HELLO = 3
    UNKNOWN_OP = 4
    NO_SUCH_TENANT = 5
    TENANT_EXISTS = 6
    NO_SUCH_TABLE = 7
    RATE_LIMITED = 8
    TOO_MANY_INFLIGHT = 9
    CONFLICT = 10
    SHUTTING_DOWN = 11
    INTERNAL = 12


# ----------------------------------------------------------------------
# Tagged binary value encoding
# ----------------------------------------------------------------------

_T_NULL = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_LIST = 7
_T_DICT = 8

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def encode_value(value, out: Optional[bytearray] = None) -> bytearray:
    """Append one value's tagged encoding to ``out`` (created if None)."""
    if out is None:
        out = bytearray()
    if value is None:
        out.append(_T_NULL)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        if not _I64_MIN <= value <= _I64_MAX:
            raise ProtocolError(f"integer out of int64 range: {value}")
        out.append(_T_INT)
        out += _I64.pack(value)
    elif isinstance(value, (float, np.floating)):
        out.append(_T_FLOAT)
        out += _F64.pack(float(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_T_BYTES)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            encode_value(key, out)
            encode_value(item, out)
    else:
        raise ProtocolError(f"unencodable value type {type(value).__name__}")
    return out


def _need(buf: bytes, offset: int, n: int) -> None:
    if offset + n > len(buf):
        raise ProtocolError("truncated value payload")


def decode_value(buf: bytes, offset: int = 0, depth: int = 0):
    """Decode one tagged value; returns ``(value, next_offset)``. Lists
    and dicts nesting deeper than :data:`MAX_VALUE_DEPTH` are refused."""
    _need(buf, offset, 1)
    tag = buf[offset]
    offset += 1
    if tag in (_T_LIST, _T_DICT) and depth >= MAX_VALUE_DEPTH:
        raise ProtocolError(f"value nested deeper than {MAX_VALUE_DEPTH}")
    if tag == _T_NULL:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        _need(buf, offset, 8)
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_FLOAT:
        _need(buf, offset, 8)
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag in (_T_STR, _T_BYTES):
        _need(buf, offset, 4)
        n = _U32.unpack_from(buf, offset)[0]
        offset += 4
        _need(buf, offset, n)
        data = bytes(buf[offset : offset + n])
        offset += n
        if tag == _T_BYTES:
            return data, offset
        try:
            return data.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 string payload: {exc}") from None
    if tag == _T_LIST:
        _need(buf, offset, 4)
        n = _U32.unpack_from(buf, offset)[0]
        offset += 4
        items = []
        for _ in range(n):
            item, offset = decode_value(buf, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == _T_DICT:
        _need(buf, offset, 4)
        n = _U32.unpack_from(buf, offset)[0]
        offset += 4
        mapping = {}
        for _ in range(n):
            key, offset = decode_value(buf, offset, depth + 1)
            if not isinstance(key, (str, int, float, bool)) and key is not None:
                raise ProtocolError("dict keys must be scalar")
            item, offset = decode_value(buf, offset, depth + 1)
            mapping[key] = item
        return mapping, offset
    raise ProtocolError(f"unknown value tag {tag}")


def decode_body(buf: bytes, offset: int = 0):
    """Decode a payload's body, requiring every byte to be consumed."""
    value, end = decode_value(buf, offset)
    if end != len(buf):
        raise ProtocolError(f"{len(buf) - end} trailing bytes after body")
    return value


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    """Wrap a payload in the ``(length, crc32)`` header."""
    return frame.encode(payload, MAX_FRAME_BYTES, ProtocolError)


class FrameDecoder(frame.FrameDecoder):
    """:class:`repro.frame.FrameDecoder` at the wire's cap, raising
    :class:`ProtocolError`."""

    error = ProtocolError

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        super().__init__(max_frame_bytes)


# ----------------------------------------------------------------------
# Requests and responses
# ----------------------------------------------------------------------

_MAX_TENANT_BYTES = 2**16 - 1


@dataclass(frozen=True)
class Request:
    op: Op
    request_id: int
    tenant: str
    body: object


@dataclass(frozen=True)
class Response:
    op: Op
    request_id: int
    status: Status
    body: object

    @property
    def ok(self) -> bool:
        return self.status is Status.OK


def pack_request(op: Op, request_id: int, tenant: str, body) -> bytes:
    """One request as a complete frame (header + payload)."""
    name = tenant.encode("utf-8")
    if len(name) > _MAX_TENANT_BYTES:
        raise ProtocolError("tenant name too long")
    payload = bytearray()
    payload.append(int(op))
    payload += _U32.pack(request_id & 0xFFFFFFFF)
    payload += _U16.pack(len(name))
    payload += name
    encode_value(body, payload)
    return encode_frame(bytes(payload))


def unpack_request(payload: bytes) -> Request:
    _need(payload, 0, 1 + 4 + 2)
    try:
        op = Op(payload[0])
    except ValueError:
        raise ProtocolError(f"unknown opcode {payload[0]}") from None
    request_id = _U32.unpack_from(payload, 1)[0]
    name_len = _U16.unpack_from(payload, 5)[0]
    _need(payload, 7, name_len)
    try:
        tenant = payload[7 : 7 + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid tenant name: {exc}") from None
    body = decode_body(payload, 7 + name_len)
    return Request(op, request_id, tenant, body)


def pack_response(op: Op, request_id: int, status: Status, body) -> bytes:
    """One response as a complete frame (header + payload)."""
    payload = bytearray()
    payload.append(int(op))
    payload += _U32.pack(request_id & 0xFFFFFFFF)
    payload.append(int(status))
    encode_value(body, payload)
    return encode_frame(bytes(payload))


def unpack_response(payload: bytes) -> Response:
    _need(payload, 0, 1 + 4 + 1)
    try:
        op = Op(payload[0])
    except ValueError:
        raise ProtocolError(f"unknown opcode {payload[0]}") from None
    request_id = _U32.unpack_from(payload, 1)[0]
    try:
        status = Status(payload[5])
    except ValueError:
        raise ProtocolError(f"unknown status {payload[5]}") from None
    body = decode_body(payload, 6)
    return Response(op, request_id, status, body)


# ----------------------------------------------------------------------
# Predicate wire form
# ----------------------------------------------------------------------
#
# Predicates cross the wire as nested lists — ["eq", col, value],
# ["and", p, q], ... — so the client never ships code, only data, and
# the server rebuilds the predicate objects the scan kernels expect.

_LEAF_BUILDERS = {
    "eq": Eq,
    "ne": Ne,
    "lt": Lt,
    "le": Le,
    "gt": Gt,
    "ge": Ge,
}


def predicate_to_wire(predicate: Optional[Predicate]):
    """A predicate tree as plain nested lists (None passes through)."""
    if predicate is None:
        return None
    if isinstance(predicate, Between):
        return ["between", predicate.column, predicate.low, predicate.high]
    if isinstance(predicate, In):
        return ["in", predicate.column, sorted(predicate.values)]
    if isinstance(predicate, IsNull):
        return ["isnull", predicate.column]
    if isinstance(predicate, NotNull):
        return ["notnull", predicate.column]
    for name, cls in _LEAF_BUILDERS.items():
        if type(predicate) is cls:
            return [name, predicate.column, predicate.value]
    if isinstance(predicate, And):
        return ["and"] + [predicate_to_wire(p) for p in predicate.parts]
    if isinstance(predicate, Or):
        return ["or"] + [predicate_to_wire(p) for p in predicate.parts]
    if isinstance(predicate, Not):
        return ["not", predicate_to_wire(predicate.part)]
    raise ProtocolError(
        f"predicate {type(predicate).__name__} has no wire form"
    )


def predicate_from_wire(data) -> Optional[Predicate]:
    """Rebuild a predicate from its nested-list wire form."""
    if data is None:
        return None
    if not isinstance(data, list) or not data or not isinstance(data[0], str):
        raise ProtocolError(f"malformed predicate wire form: {data!r}")
    kind, args = data[0], data[1:]
    try:
        if kind in _LEAF_BUILDERS:
            column, value = args
            return _LEAF_BUILDERS[kind](_column(column), value)
        if kind == "between":
            column, low, high = args
            return Between(_column(column), low, high)
        if kind == "in":
            column, values = args
            if not isinstance(values, list):
                raise ProtocolError("'in' wants a list of values")
            return In(_column(column), values)
        if kind == "isnull":
            (column,) = args
            return IsNull(_column(column))
        if kind == "notnull":
            (column,) = args
            return NotNull(_column(column))
        if kind == "and":
            return And(*[_part(p) for p in args])
        if kind == "or":
            return Or(*[_part(p) for p in args])
        if kind == "not":
            (part,) = args
            return Not(_part(part))
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed predicate {kind!r}: {exc}") from None
    raise ProtocolError(f"unknown predicate kind {kind!r}")


def _column(name) -> str:
    if not isinstance(name, str):
        raise ProtocolError(f"predicate column must be a string, got {name!r}")
    return name


def _part(data) -> Predicate:
    predicate = predicate_from_wire(data)
    if predicate is None:
        raise ProtocolError("nested predicate may not be None")
    return predicate


__all__: List[str] = [
    "ADMIN_OPS",
    "FRAME_HEADER_BYTES",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "MAX_VALUE_DEPTH",
    "Op",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "Response",
    "Status",
    "decode_body",
    "decode_value",
    "encode_frame",
    "encode_value",
    "pack_request",
    "pack_response",
    "predicate_from_wire",
    "predicate_to_wire",
    "unpack_request",
    "unpack_response",
]
