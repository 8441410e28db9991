"""One CRC frame for every byte stream the engine writes or reads.

The log (and a follower's mirror of it), the wire and every checkpoint
file frame their payloads alike::

    u32 length | u32 crc32(payload) | payload (length bytes)

A reader's cap rejects a garbage length from the header alone, and the
CRC is checked before any payload byte is interpreted. Every decoder
fails with :class:`FrameError`. This is the only module that computes a
CRC.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional

HEADER = struct.Struct("<II")
HEADER_BYTES = HEADER.size

#: :attr:`FrameError.reason` values.
SHORT = "short"  # the bytes end inside a frame
CRC = "crc"  # a whole frame failed its CRC
OVERSIZE = "oversize"  # a length beyond the cap
PAYLOAD = "payload"  # CRC-valid bytes that do not parse, or trailing bytes

#: What a payload parser raises on bytes it cannot read; each decoder
#: turns these into a :class:`FrameError` at one point.
PARSE_ERRORS = (ValueError, struct.error, IndexError, KeyError, OverflowError)


class FrameError(ValueError):
    """Bytes that break the frame rules: ``reason`` says which, and
    ``offset`` is the stream offset of the frame at fault (``None`` for a
    payload decoded apart from its stream)."""

    def __init__(
        self, message: str, reason: str = PAYLOAD, offset: Optional[int] = None
    ):
        super().__init__(message)
        self.reason = reason
        self.offset = offset


def encode(payload: bytes, cap: int, error: type = FrameError) -> bytes:
    """``payload`` as one frame; a payload over ``cap`` raises ``error``."""
    if len(payload) > cap:
        raise error(
            f"payload of {len(payload)} bytes exceeds the {cap}-byte frame cap",
            OVERSIZE,
            0,
        )
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class FrameDecoder:
    """Streaming frame parser: feed bytes, iterate complete payloads.
    A frame cut short waits for more bytes; a length over ``cap`` or a
    CRC mismatch raises :attr:`error`, at an offset counted from
    ``offset`` (the stream offset of the first byte fed)."""

    error: type = FrameError

    def __init__(self, cap: int, offset: int = 0):
        self._buffer = bytearray()
        self._cap = cap
        self._offset = offset  # stream offset of self._buffer[0]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decoded into a full frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def frames(self) -> Iterator[bytes]:
        """Yield every complete payload buffered so far."""
        buffer = self._buffer
        pos = 0
        try:
            while len(buffer) - pos >= HEADER_BYTES:
                length, crc = HEADER.unpack_from(buffer, pos)
                if length > self._cap:
                    raise self.error(
                        f"frame length {length} exceeds the {self._cap}-byte cap",
                        OVERSIZE,
                        self._offset + pos,
                    )
                start = pos + HEADER_BYTES
                if len(buffer) - start < length:
                    break  # short: wait for more bytes
                payload = bytes(buffer[start : start + length])
                if zlib.crc32(payload) != crc:
                    raise self.error("frame CRC mismatch", CRC, self._offset + pos)
                pos = start + length
                yield payload
        finally:
            del buffer[:pos]
            self._offset += pos
