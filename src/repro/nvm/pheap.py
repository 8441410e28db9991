"""Persistent heap for variable-size blobs (string dictionary payloads).

Blobs are immutable once written: ``put`` allocates, writes a 4-byte
length prefix plus the payload, persists both, and returns the offset.
A blob only becomes *reachable* when the caller persists a pointer to
it, so a crash between ``put`` and that pointer store merely leaks the
block (until the pool's next sweep, never corrupts).

A blob's block runs to the next 8-byte boundary — the heap's alignment,
so the bytes the next blob could not have used anyway. Blobs written
one after another then leave no slivers between them for the pool's
free list to carry.
"""

from __future__ import annotations

from repro.nvm.pool import PMemPool

_MAX_BLOB = 2**32 - 1
_ALIGN = 8


def _block_bytes(payload_bytes: int) -> int:
    return -(-(4 + payload_bytes) // _ALIGN) * _ALIGN


class PHeap:
    """Append-only blob storage on a pmem pool."""

    def __init__(self, pool: PMemPool):
        self._pool = pool
        self.blobs_written = 0
        self.bytes_written = 0

    def put(self, payload: bytes) -> int:
        """Durably store ``payload``; returns its pool offset."""
        if len(payload) > _MAX_BLOB:
            raise ValueError("blob too large")
        total = 4 + len(payload)
        off = self._pool.allocate(_block_bytes(len(payload)), align=_ALIGN)
        self._pool.write(off, len(payload).to_bytes(4, "little") + payload)
        self._pool.persist(off, total)
        self.blobs_written += 1
        self.bytes_written += total
        return off

    def get(self, offset: int) -> bytes:
        """Read the blob stored at ``offset``."""
        length = self._pool.read_u32(offset)
        return self._pool.read(offset + 4, length)

    def block(self, offset: int) -> tuple[int, int]:
        """The ``(offset, nbytes)`` block holding the blob at ``offset``."""
        return offset, _block_bytes(self._pool.read_u32(offset))

    def put_str(self, text: str) -> int:
        """Store a UTF-8 encoded string."""
        return self.put(text.encode("utf-8"))

    def get_str(self, offset: int) -> str:
        """Read a UTF-8 encoded string."""
        return self.get(offset).decode("utf-8")
