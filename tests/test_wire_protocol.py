"""Wire-protocol tests: codec roundtrips, framing, hostile inputs.

The decoder must be total over arbitrary bytes: every input either
yields frames, waits for more bytes, or raises
:class:`~repro.server.protocol.ProtocolError` — never crashes, never
allocates a 4 GiB buffer because a length prefix said so.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from repro.server import protocol
from repro.server.protocol import (
    FRAME_HEADER_BYTES,
    FrameDecoder,
    MAX_FRAME_BYTES,
    MAX_VALUE_DEPTH,
    Op,
    PROTOCOL_VERSION,
    ProtocolError,
    Status,
    decode_body,
    decode_value,
    encode_frame,
    encode_value,
    pack_request,
    pack_response,
    predicate_from_wire,
    predicate_to_wire,
    unpack_request,
    unpack_response,
)

# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------


def roundtrip(value):
    return decode_body(bytes(encode_value(value)))


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**63 - 1,
        -(2**63),
        0.0,
        -2.5,
        float("inf"),
        "",
        "héllo ⚡",
        b"",
        b"\x00\xff" * 17,
        [],
        [1, "two", None, [3.0, False]],
        {},
        {"a": 1, "b": [2, {"c": None}]},
        {1: "int key", True: "bool key", None: "null key"},
    ],
)
def test_value_roundtrip(value):
    assert roundtrip(value) == value


def test_numpy_scalars_coerce():
    assert roundtrip(np.int64(41)) == 41
    assert roundtrip(np.float64(2.5)) == 2.5
    assert roundtrip([np.int32(7)]) == [7]


def test_tuple_decodes_as_list():
    assert roundtrip((1, 2)) == [1, 2]


def test_int_out_of_i64_range_rejected():
    with pytest.raises(ProtocolError, match="int64"):
        encode_value(2**63)
    with pytest.raises(ProtocolError, match="int64"):
        encode_value(-(2**63) - 1)


def test_unencodable_type_rejected():
    with pytest.raises(ProtocolError, match="unencodable"):
        encode_value(object())


def test_trailing_bytes_rejected():
    buf = bytes(encode_value(5)) + b"\x00"
    with pytest.raises(ProtocolError, match="trailing"):
        decode_body(buf)


def test_unknown_tag_rejected():
    with pytest.raises(ProtocolError, match="unknown value tag"):
        decode_value(b"\xfe")


def test_invalid_utf8_string_rejected():
    bad = bytes([5]) + struct.pack("<I", 2) + b"\xff\xfe"
    with pytest.raises(ProtocolError, match="UTF-8"):
        decode_value(bad)


def _nested_lists(depth: int) -> bytes:
    """``depth`` one-element lists around a NULL, encoded by hand: the
    recursive encoder cannot build the deepest ones."""
    return (bytes([7]) + struct.pack("<I", 1)) * depth + bytes([0])


def test_nesting_up_to_the_cap_decodes():
    value = decode_body(_nested_lists(MAX_VALUE_DEPTH))
    for _ in range(MAX_VALUE_DEPTH):
        (value,) = value
    assert value is None


@pytest.mark.parametrize("depth", [MAX_VALUE_DEPTH + 1, 5000])
def test_nesting_beyond_the_cap_is_a_protocol_error(depth):
    with pytest.raises(ProtocolError, match="nested deeper"):
        decode_body(_nested_lists(depth))
    as_dict = (bytes([8]) + struct.pack("<I", 1) + bytes([0])) * depth + bytes([0])
    with pytest.raises(ProtocolError, match="nested deeper"):
        decode_body(as_dict)


def test_truncated_value_rejected_at_every_prefix():
    buf = bytes(encode_value({"key": [1, "x", 2.0]}))
    for cut in range(len(buf)):
        with pytest.raises(ProtocolError):
            decode_body(buf[:cut])


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=25,
)


@given(value=json_values)
@settings(max_examples=150, deadline=None)
def test_value_roundtrip_property(value):
    assert roundtrip(value) == value


@given(junk=st.binary(max_size=200))
@settings(max_examples=150, deadline=None)
def test_decoder_total_over_junk(junk):
    # Arbitrary bytes either decode or raise ProtocolError — no other
    # exception type, no hang, no absurd allocation.
    try:
        decode_body(junk)
    except ProtocolError:
        pass


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def frames_of(decoder: FrameDecoder) -> list:
    return list(decoder.frames())


def test_frame_roundtrip_byte_at_a_time():
    payloads = [b"alpha", b"", b"x" * 1000]
    stream = b"".join(encode_frame(p) for p in payloads)
    decoder = FrameDecoder()
    seen = []
    for i in range(len(stream)):
        decoder.feed(stream[i : i + 1])
        seen.extend(frames_of(decoder))
    assert seen == payloads
    assert decoder.pending_bytes == 0


def test_interleaved_pipelined_frames_random_segmentation():
    rng = np.random.default_rng(7)
    payloads = [bytes(encode_value({"id": i, "blob": "y" * (i * 3)})) for i in range(40)]
    stream = b"".join(encode_frame(p) for p in payloads)
    decoder = FrameDecoder()
    seen = []
    pos = 0
    while pos < len(stream):
        n = int(rng.integers(1, 23))
        decoder.feed(stream[pos : pos + n])
        pos += n
        seen.extend(frames_of(decoder))
    assert seen == payloads


def test_truncated_frame_waits_not_errors():
    frame = encode_frame(b"payload")
    decoder = FrameDecoder()
    decoder.feed(frame[:-1])
    assert frames_of(decoder) == []
    assert decoder.pending_bytes == len(frame) - 1
    decoder.feed(frame[-1:])
    assert frames_of(decoder) == [b"payload"]


def test_bad_crc_rejected():
    frame = bytearray(encode_frame(b"payload"))
    frame[-1] ^= 0x01
    decoder = FrameDecoder()
    decoder.feed(bytes(frame))
    with pytest.raises(ProtocolError, match="CRC"):
        frames_of(decoder)


def test_oversized_length_prefix_rejected_before_payload_arrives():
    # The header alone declares an absurd frame: rejected immediately,
    # without waiting for (or allocating) the claimed bytes.
    header = struct.pack("<II", MAX_FRAME_BYTES + 1, 0)
    decoder = FrameDecoder()
    decoder.feed(header)
    with pytest.raises(ProtocolError, match="cap"):
        frames_of(decoder)


def test_oversized_payload_rejected_at_encode():
    with pytest.raises(ProtocolError, match="cap"):
        encode_frame(b"x" * (MAX_FRAME_BYTES + 1))


def test_good_frames_before_bad_one_still_delivered():
    good = encode_frame(b"ok")
    bad = bytearray(encode_frame(b"bad"))
    bad[FRAME_HEADER_BYTES] ^= 0xFF
    decoder = FrameDecoder()
    decoder.feed(good + bytes(bad))
    it = decoder.frames()
    assert next(it) == b"ok"
    with pytest.raises(ProtocolError):
        next(it)


@given(
    payloads=st.lists(st.binary(max_size=120), max_size=8),
    chunk=st.integers(1, 64),
)
@settings(max_examples=80, deadline=None)
def test_frame_roundtrip_property(payloads, chunk):
    stream = b"".join(encode_frame(p) for p in payloads)
    decoder = FrameDecoder()
    seen = []
    for pos in range(0, len(stream), chunk):
        decoder.feed(stream[pos : pos + chunk])
        seen.extend(frames_of(decoder))
    assert seen == payloads


# ----------------------------------------------------------------------
# Request / response payloads
# ----------------------------------------------------------------------


def payload_of(frame: bytes) -> bytes:
    return frame[FRAME_HEADER_BYTES:]


def test_request_roundtrip():
    frame = pack_request(Op.QUERY, 99, "acme", {"table": "t"})
    request = unpack_request(payload_of(frame))
    assert request.op is Op.QUERY
    assert request.request_id == 99
    assert request.tenant == "acme"
    assert request.body == {"table": "t"}


def test_response_roundtrip():
    frame = pack_response(Op.INSERT, 7, Status.CONFLICT, "write conflict")
    response = unpack_response(payload_of(frame))
    assert response.op is Op.INSERT
    assert response.request_id == 7
    assert response.status is Status.CONFLICT
    assert not response.ok
    assert response.body == "write conflict"


def test_unknown_opcode_rejected():
    payload = bytearray(payload_of(pack_request(Op.PING, 1, "", {})))
    payload[0] = 250
    with pytest.raises(ProtocolError, match="opcode"):
        unpack_request(bytes(payload))
    with pytest.raises(ProtocolError, match="opcode"):
        unpack_response(bytes(payload))


def test_unknown_status_rejected():
    payload = bytearray(payload_of(pack_response(Op.PING, 1, Status.OK, None)))
    payload[5] = 200
    with pytest.raises(ProtocolError, match="status"):
        unpack_response(bytes(payload))


def test_truncated_request_rejected_at_every_prefix():
    payload = payload_of(pack_request(Op.INSERT, 3, "tenant", {"row": {"a": 1}}))
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError):
            unpack_request(payload[:cut])


def test_hello_carries_version():
    frame = pack_request(Op.HELLO, 1, "", {"version": PROTOCOL_VERSION})
    assert unpack_request(payload_of(frame)).body["version"] == PROTOCOL_VERSION


@given(
    op=st.sampled_from(list(Op)),
    request_id=st.integers(0, 2**32 - 1),
    tenant=st.text(max_size=30),
    body=json_values,
)
@settings(max_examples=80, deadline=None)
def test_request_roundtrip_property(op, request_id, tenant, body):
    request = unpack_request(payload_of(pack_request(op, request_id, tenant, body)))
    assert (request.op, request.request_id, request.tenant, request.body) == (
        op,
        request_id,
        tenant,
        body,
    )


# ----------------------------------------------------------------------
# Predicate wire form
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "predicate",
    [
        Eq("a", 1),
        Ne("a", "x"),
        Lt("a", 3),
        Le("a", 3.5),
        Gt("a", -2),
        Ge("a", 0),
        Between("a", 1, 9),
        In("a", [3, 1, 2]),
        IsNull("a"),
        NotNull("a"),
        And(Eq("a", 1), Gt("b", 2)),
        Or(Eq("a", 1), And(Lt("b", 5), NotNull("c"))),
        Not(Between("a", 1, 2)),
    ],
)
def test_predicate_wire_roundtrip(predicate):
    wire = predicate_to_wire(predicate)
    rebuilt = predicate_from_wire(wire)
    assert predicate_to_wire(rebuilt) == wire


def test_predicate_none_passthrough():
    assert predicate_to_wire(None) is None
    assert predicate_from_wire(None) is None


@pytest.mark.parametrize(
    "wire",
    [
        "eq",
        [],
        [1, "a", 2],
        ["eq", "a"],
        ["eq", 5, 1],
        ["between", "a", 1],
        ["in", "a", "not-a-list"],
        ["frobnicate", "a", 1],
        ["not", None],
        ["and", ["eq", "a"]],
    ],
)
def test_malformed_predicate_wire_rejected(wire):
    with pytest.raises(ProtocolError):
        predicate_from_wire(wire)


def test_wire_survives_codec():
    wire = predicate_to_wire(And(Eq("a", 1), In("b", [1, 2])))
    assert protocol.decode_body(bytes(protocol.encode_value(wire))) == wire


def test_frame_header_matches_wal_discipline():
    # Same header shape as the WAL: u32 length then u32 crc32, LE.
    payload = b"abc"
    frame = encode_frame(payload)
    length, crc = struct.unpack_from("<II", frame)
    assert length == len(payload)
    assert crc == zlib.crc32(payload)
