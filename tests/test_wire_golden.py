"""Golden wire bytes: the codec's output is pinned, not just its roundtrip.

A fixed corpus of request and response frames is packed and hashed;
the digest was recorded from the straightforward ``isinstance``-chain
encoder, so a faster encoder (or decoder) that changes a single byte —
a NaN's payload, the sign of a zero, a numpy scalar's width — fails
here even when its own roundtrip still agrees with itself. Every frame
must also decode back to the value it carried, floats compared by bits.
"""

from __future__ import annotations

import array
import collections
import enum
import hashlib
import struct

import numpy as np
import pytest

from repro import frame
from repro.server.protocol import (
    MAX_VALUE_DEPTH,
    Op,
    Status,
    pack_request,
    pack_response,
    unpack_request,
    unpack_response,
)


def _f64(hex_le: str) -> float:
    return struct.unpack("<d", bytes.fromhex(hex_le))[0]


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


def _nested(depth: int):
    value = "leaf"
    for _ in range(depth):
        value = [value]
    return value


_QUIET_NAN_PAYLOAD = _f64("010000000000f87f")
_NEGATIVE_NAN = _f64("0000000000f8ffff")
_NAN_HIGH_PAYLOAD = _f64("efcdab8967f5ff7f")

#: One body per tag, then every awkward value the encoder must not
#: reshape: numpy scalars, tuples, IntEnum, bool, NaN payload bits,
#: signed zero, infinities, the int64 bounds, non-BMP text, subclasses,
#: and nesting at exactly the decoder's depth cap.
BODIES = [
    None,
    False,
    True,
    0,
    -1,
    123456789,
    1.5,
    "",
    "plain",
    b"",
    b"\x00\xff\x10",
    [],
    [1, "two", None],
    {},
    {"a": 1, "b": [2, {"c": None}]},
    {1: "int key", 2.5: "float key", None: "null key", False: "bool key"},
    np.int8(-7),
    np.int32(7),
    np.int64(-(2**63)),
    np.uint8(255),
    np.uint64(2**63 - 1),
    np.float32(0.1),
    np.float64(-2.25),
    np.float64(_QUIET_NAN_PAYLOAD),
    (1, "a", (None, 2.0)),
    (),
    _Colour.BLUE,
    Op.INSERT,
    Status.CONFLICT,
    [True, False, 1, 0],
    {"flag": True, "count": _Colour.RED},
    float("nan"),
    _QUIET_NAN_PAYLOAD,
    _NEGATIVE_NAN,
    _NAN_HIGH_PAYLOAD,
    -0.0,
    0.0,
    float("inf"),
    float("-inf"),
    2**63 - 1,
    -(2**63),
    "𝄞 music, 😀 grin, 𠜎 ext-B",
    {"é": "ü", "𝔘": ["ℵ", "\U0010ffff"]},
    bytearray(b"mutable"),
    memoryview(b"viewed"),
    _Str("sub-str"),
    _Int(41),
    _List([1, 2]),
    collections.OrderedDict([("z", 1), ("a", 2)]),
    _nested(MAX_VALUE_DEPTH),
    {"rows": [{"id": i, "grp": f"g{i % 3}", "qty": i * 7} for i in range(5)]},
]

REQUESTS = [
    (list(Op)[i % len(Op)], 1000 + i, ("", "acme", "tënant-𝄞")[i % 3], body)
    for i, body in enumerate(BODIES)
] + [
    (Op.HELLO, 1, "", {"version": 1, "client": "repro-client"}),
    (Op.INSERT, 2**32 + 5, "acme", {"table": "t", "row": {"id": 3}}),
    (Op.QUERY, 0xFFFFFFFF, "acme", {"table": "t", "predicate": ["eq", "id", 3]}),
]

RESPONSES = [
    (list(Op)[i % len(Op)], 2000 + i, list(Status)[i % len(Status)], body)
    for i, body in enumerate(BODIES)
] + [
    (Op.INSERT, 9, Status.OK, {"row": 12, "delta": True}),
    (Op.QUERY, 10, Status.NO_SUCH_TABLE, "no table 't'"),
]

#: sha256 over every request frame, then every response frame.
GOLDEN_SHA256 = "3895a6576c02e6c766387e688076af5bcefa3492e8aa758d44dc13de4b652ffa"


def _frames() -> list[bytes]:
    return [pack_request(*r) for r in REQUESTS] + [
        pack_response(*r) for r in RESPONSES
    ]


def _canonical(value):
    """What the wire gives back for ``value``: plain Python types."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {_canonical(k): _canonical(v) for k, v in value.items()}
    assert isinstance(value, str), value
    return str(value)


def _same(got, want) -> bool:
    """Equality that compares floats by their bits (NaN, -0.0)."""
    if isinstance(want, float):
        return type(got) is float and struct.pack("<d", got) == struct.pack(
            "<d", want
        )
    if isinstance(want, list):
        return (
            type(got) is list
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, dict):
        return (
            type(got) is dict
            and list(got) == list(want)
            and all(_same(got[k], want[k]) for k in want)
        )
    return type(got) is type(want) and got == want


def test_corpus_bytes_are_pinned():
    digest = hashlib.sha256(b"".join(_frames())).hexdigest()
    assert digest == GOLDEN_SHA256


@pytest.mark.parametrize("index", range(len(REQUESTS)))
def test_request_frames_decode_back(index):
    op, request_id, tenant, body = REQUESTS[index]
    payload = pack_request(op, request_id, tenant, body)[frame.HEADER_BYTES :]
    request = unpack_request(payload)
    assert request.op is op
    assert request.request_id == request_id & 0xFFFFFFFF
    assert request.tenant == tenant
    assert _same(request.body, _canonical(body))


@pytest.mark.parametrize("index", range(len(RESPONSES)))
def test_response_frames_decode_back(index):
    op, request_id, status, body = RESPONSES[index]
    payload = pack_response(op, request_id, status, body)[frame.HEADER_BYTES :]
    response = unpack_response(payload)
    assert response.op is op
    assert response.request_id == request_id
    assert response.status is status
    assert response.ok is (status is Status.OK)
    assert _same(response.body, _canonical(body))


def test_float_bits_survive_exactly():
    """The NaN payloads and the signed zero are not normalised."""
    for value in (_QUIET_NAN_PAYLOAD, _NEGATIVE_NAN, _NAN_HIGH_PAYLOAD, -0.0):
        payload = pack_response(Op.PING, 1, Status.OK, value)[frame.HEADER_BYTES :]
        assert payload[-8:] == struct.pack("<d", value)


# ----------------------------------------------------------------------
# Packed numeric columns: a second corpus, pinned apart from the first
# ----------------------------------------------------------------------

#: 1-D int64/float64 ``array.array`` and ndarray values, each sent as one
#: packed column: empty, the int64 bounds, NaN payload bits, signed zero,
#: infinities, and an ``INSERT_MANY`` columns body as the client builds it.
PACKED_BODIES = [
    array.array("q"),
    array.array("d"),
    array.array("q", [0, -1, 2**63 - 1, -(2**63), 123456789]),
    array.array(
        "d",
        [1.5, -0.0, 0.0, float("inf"), float("-inf"), _QUIET_NAN_PAYLOAD,
         _NEGATIVE_NAN, _NAN_HIGH_PAYLOAD],
    ),
    np.arange(-3, 4, dtype=np.int64),
    np.array([_NAN_HIGH_PAYLOAD, -0.0, 2.5], dtype=np.float64),
    np.empty(0, dtype=np.int64),
    [array.array("q", [7]), np.array([0.25])],
    {
        "table": "t",
        "columns": {
            "id": array.array("q", range(5)),
            "name": ["a", None, "𝄞", "", "e"],
            "qty": array.array("d", [0.5, -0.0, _QUIET_NAN_PAYLOAD, 1e300, 3.0]),
        },
    },
]

PACKED_REQUESTS = [
    (Op.INSERT_MANY, 3000 + i, "acme", body) for i, body in enumerate(PACKED_BODIES)
]

#: sha256 over every packed-column request frame.
PACKED_GOLDEN_SHA256 = "f916bffac5540609227db970654441e2856a3c9d7e5123722e953b5d604b6c95"


def _canonical_packed(value):
    """What the wire gives back for a value holding packed columns."""
    if isinstance(value, (array.array, np.ndarray)):
        return [_canonical(v) for v in value]
    if isinstance(value, list):
        return [_canonical_packed(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical_packed(v) for k, v in value.items()}
    return _canonical(value)


def test_packed_corpus_bytes_are_pinned():
    frames = [pack_request(*r) for r in PACKED_REQUESTS]
    assert hashlib.sha256(b"".join(frames)).hexdigest() == PACKED_GOLDEN_SHA256


@pytest.mark.parametrize("index", range(len(PACKED_REQUESTS)))
def test_packed_frames_decode_back_to_lists(index):
    op, request_id, tenant, body = PACKED_REQUESTS[index]
    payload = pack_request(op, request_id, tenant, body)[frame.HEADER_BYTES :]
    assert _same(unpack_request(payload).body, _canonical_packed(body))


def test_a_packed_column_is_eight_bytes_a_value():
    """``u8 tag | u8 kind | u32 count | count x 8 bytes LE``."""
    for value, kind, raw in [
        (array.array("q", [1, -2]), b"q", struct.pack("<2q", 1, -2)),
        (np.array([-0.0, 2.5]), b"d", struct.pack("<2d", -0.0, 2.5)),
    ]:
        body = pack_response(Op.PING, 1, Status.OK, value)[frame.HEADER_BYTES + 6 :]
        assert body == bytes([9]) + kind + struct.pack("<I", 2) + raw
