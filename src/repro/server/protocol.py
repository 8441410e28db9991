"""The binary wire protocol: CRC-framed requests and responses.

Frames are :mod:`repro.frame`'s, the code :mod:`repro.wal.reader`
reads the log with, capped at :data:`MAX_FRAME_BYTES`. A truncated
frame waits for more bytes; an oversized length prefix, a CRC mismatch
or a malformed payload raises :class:`ProtocolError` (a
:class:`~repro.frame.FrameError`): the server drops the connection,
the client surfaces the error. Payloads are parsed without bounds
checks — a short read fails as ``IndexError`` or ``struct.error`` —
and the public decoders turn every parse failure into
:class:`ProtocolError` at one point, :func:`_parser`.

Request payloads::

    u8 opcode | u32 request_id | u16 tenant_len | tenant utf-8 | body

Response payloads::

    u8 opcode (echoed) | u32 request_id | u8 status | body

``body`` is one value in the compact tagged binary encoding below
(:func:`encode_value` / :func:`decode_value`) — NULL, bool, int64,
float64, UTF-8 string, bytes, list, and dict cover every request and
result shape the engine exchanges, including metrics snapshots and
recovery span trees; a packed int64/float64 column decodes to a list
(a server older than it drops the connection). Errors carry a
human-readable message string as their body and a non-zero
:class:`Status` code.

The protocol is versioned: a connection opens with a :data:`Op.HELLO`
carrying :data:`PROTOCOL_VERSION`; the server rejects other versions
with :data:`Status.WRONG_VERSION` and every non-HELLO request on a
un-greeted session with :data:`Status.NEED_HELLO`.
"""

from __future__ import annotations

import array
import functools
import struct
from enum import IntEnum
from typing import NamedTuple, Optional

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
_T_PACKED = 9  # u8 kind ('q' int64 / 'd' float64) | u32 count | count x 8 bytes LE
#: A packed column's kind byte -> its dtype, and an ndarray's dtype -> kind.
_PACKED = {ord("q"): "<i8", ord("d"): "<f8"}
_KINDS = {np.dtype(np.int64): ord("q"), np.dtype(np.float64): ord("d")}

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

_TAG_I64 = struct.Struct("<Bq")
_TAG_F64 = struct.Struct("<Bd")
_TAG_U32 = struct.Struct("<BI")
_TAG_PACKED = struct.Struct("<BBI")


def encode_value(value, out: Optional[bytearray] = None) -> bytearray:
    """Append one value's tagged encoding to ``out`` (created if None).

    The exact built-in types take one ``type(...) is`` test each; numpy
    scalars, tuples, subclasses and the rest fall back to ``isinstance``.
    A 1-D int64/float64 ``array.array`` or ndarray is a packed column.
    """
    if out is None:
        out = bytearray()
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        out += _TAG_U32.pack(_T_STR, len(data))
        out += data
    elif kind is int:
        if not _I64_MIN <= value <= _I64_MAX:
            raise ProtocolError(f"integer out of int64 range: {value}")
        out += _TAG_I64.pack(_T_INT, value)
    elif kind is dict:
        out += _TAG_U32.pack(_T_DICT, len(value))
        for key, item in value.items():
            if type(key) is str:  # the usual key, written in place
                data = key.encode("utf-8")
                out += _TAG_U32.pack(_T_STR, len(data))
                out += data
            else:
                encode_value(key, out)
            encode_value(item, out)
    elif kind is list:
        out += _TAG_U32.pack(_T_LIST, len(value))
        for item in value:
            encode_value(item, out)
    elif value is None:
        out.append(_T_NULL)
    elif kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is float:
        out += _TAG_F64.pack(_T_FLOAT, value)
    elif isinstance(value, (int, np.integer)):
        encode_value(int(value), out)
    elif isinstance(value, (float, np.floating)):
        out += _TAG_F64.pack(_T_FLOAT, float(value))
    elif isinstance(value, str):
        encode_value(str(value), out)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out += _TAG_U32.pack(_T_BYTES, len(data))
        out += data
    elif isinstance(value, (list, tuple)):
        encode_value(list(value), out)
    elif isinstance(value, dict):
        encode_value(dict(value), out)
    elif isinstance(value, array.array) and value.typecode in "qd":
        encode_value(np.asarray(value), out)
    elif isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype in _KINDS:
        kind = _KINDS[value.dtype]
        out += _TAG_PACKED.pack(_T_PACKED, kind, len(value))
        out += value.astype(_PACKED[kind], copy=False).tobytes()
    else:
        raise ProtocolError(f"unencodable value type {type(value).__name__}")
    return out


def _decode(buf: bytes, offset: int = 0, depth: int = 0):
    """Decode one tagged value; returns ``(value, next_offset)``. Lists
    and dicts nesting deeper than :data:`MAX_VALUE_DEPTH` are refused.
    A read past the end fails as ``IndexError``/``struct.error``."""
    tag = buf[offset]
    offset += 1
    if tag <= _T_TRUE:  # NULL, FALSE, TRUE are tags 0, 1, 2
        return (None, False, True)[tag], offset
    if tag == _T_STR or tag == _T_BYTES:
        end = offset + 4 + _U32.unpack_from(buf, offset)[0]
        if end > len(buf):
            raise ProtocolError("truncated value payload")
        if tag == _T_BYTES:
            return bytes(buf[offset + 4 : end]), end
        return str(buf[offset + 4 : end], "utf-8"), end
    if tag == _T_INT:
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_DICT or tag == _T_LIST:
        if depth >= MAX_VALUE_DEPTH:
            raise ProtocolError(f"value nested deeper than {MAX_VALUE_DEPTH}")
        n = _U32.unpack_from(buf, offset)[0]
        offset += 4
        depth += 1
        if tag == _T_LIST:
            items = []
            for _ in range(n):
                item, offset = _decode(buf, offset, depth)
                items.append(item)
            return items, offset
        mapping = {}
        for _ in range(n):
            if buf[offset] == _T_STR:  # the usual key, read in place
                end = offset + 5 + _U32.unpack_from(buf, offset + 1)[0]
                if end > len(buf):
                    raise ProtocolError("truncated value payload")
                key = str(buf[offset + 5 : end], "utf-8")
                offset = end
            else:
                key, offset = _decode(buf, offset, depth)
                if isinstance(key, (bytes, list, dict)):
                    raise ProtocolError("dict keys must be scalar")
            mapping[key], offset = _decode(buf, offset, depth)
        return mapping, offset
    if tag == _T_FLOAT:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag == _T_PACKED:
        dtype = _PACKED.get(buf[offset])
        if dtype is None:
            raise ProtocolError(f"unknown packed column kind {buf[offset]}")
        n = _U32.unpack_from(buf, offset + 1)[0]  # a short column: ValueError
        return np.frombuffer(buf, dtype, n, offset + 5).tolist(), offset + 5 + 8 * n
    raise ProtocolError(f"unknown value tag {tag}")


def _parser(parse):
    """The one point where a payload that does not parse becomes a
    :class:`ProtocolError`: ``parse`` reads freely and lets a short
    read fail as ``IndexError``/``struct.error``."""

    @functools.wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ProtocolError:
            raise
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 string payload: {exc}") from None
        except frame.PARSE_ERRORS as exc:
            raise ProtocolError(f"truncated value payload: {exc}") from None

    return checked


def _body(buf: bytes, offset: int = 0):
    """Decode a payload's body, requiring every byte to be consumed."""
    value, end = _decode(buf, offset, 0)
    if end != len(buf):
        raise ProtocolError(f"{len(buf) - end} trailing bytes after body")
    return value


decode_value = _parser(_decode)
decode_body = _parser(_body)


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
_REQUEST_HEAD = struct.Struct("<BIH")  # opcode, request id, tenant length
_RESPONSE_HEAD = struct.Struct("<BIB")  # opcode, request id, status
_OPS = {int(op): op for op in Op}
_STATUSES = {int(status): status for status in Status}


class Request(NamedTuple):
    op: Op
    request_id: int
    tenant: str
    body: object


class Response(NamedTuple):
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
    payload = bytearray(_REQUEST_HEAD.pack(op, request_id & 0xFFFFFFFF, len(name)))
    payload += name
    return encode_frame(encode_value(body, payload))


@_parser
def unpack_request(payload: bytes) -> Request:
    op = _OPS.get(payload[0])
    if op is None:
        raise ProtocolError(f"unknown opcode {payload[0]}")
    _, request_id, name_len = _REQUEST_HEAD.unpack_from(payload)
    # A cut name leaves no byte for the body's tag: a short read.
    tenant = str(payload[7 : 7 + name_len], "utf-8")
    return Request(op, request_id, tenant, _body(payload, 7 + name_len))


def pack_response(op: Op, request_id: int, status: Status, body) -> bytes:
    """One response as a complete frame (header + payload)."""
    payload = bytearray(_RESPONSE_HEAD.pack(op, request_id & 0xFFFFFFFF, status))
    return encode_frame(encode_value(body, payload))


@_parser
def unpack_response(payload: bytes) -> Response:
    op = _OPS.get(payload[0])
    if op is None:
        raise ProtocolError(f"unknown opcode {payload[0]}")
    _, request_id, code = _RESPONSE_HEAD.unpack_from(payload)
    status = _STATUSES.get(code)
    if status is None:
        raise ProtocolError(f"unknown status {code}")
    return Response(op, request_id, status, _body(payload, 6))


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
