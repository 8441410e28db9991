"""Memory backends: where vectors and blobs physically live.

``NvmBackend`` places everything on a :class:`~repro.nvm.pool.PMemPool`
(Hyrise-NV). ``VolatileBackend`` places everything in DRAM (the classic
engine, whose durability comes from the write-ahead log and checkpoints).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.nvm.pheap import PHeap
from repro.nvm.pool import PMemPool
from repro.nvm.pvector import DEFAULT_CHUNK_CAPACITY, PVector
from repro.storage.vector import VectorLike, VolatileVector


class Backend(ABC):
    """Factory for vectors and blob storage on one kind of memory."""

    #: True when structures survive process death in place (NVM).
    persistent: bool

    @abstractmethod
    def make_vector(
        self, dtype: np.dtype, chunk_capacity: int = DEFAULT_CHUNK_CAPACITY, fill=None
    ) -> VectorLike:
        """Create a new empty vector of ``dtype``; with a ``fill``, one
        whose chunks take no space until a store (DRAM ignores it)."""

    @abstractmethod
    def put_blob(self, payload: bytes) -> int:
        """Store an immutable blob; returns a handle."""

    @abstractmethod
    def get_blob(self, handle: int) -> bytes:
        """Fetch a blob by handle."""

    @abstractmethod
    def blob_block(self, handle: int) -> tuple[int, int]:
        """``(offset, nbytes)`` of the memory a blob occupies."""

    def put_str(self, text: str) -> int:
        return self.put_blob(text.encode("utf-8"))

    def get_str(self, handle: int) -> str:
        return self.get_blob(handle).decode("utf-8")


class VolatileBackend(Backend):
    """DRAM backend: plain growable arrays and an in-process blob list."""

    persistent = False

    def __init__(self):
        self._blobs: list[bytes] = []

    def make_vector(
        self, dtype: np.dtype, chunk_capacity: int = DEFAULT_CHUNK_CAPACITY, fill=None
    ) -> VolatileVector:
        return VolatileVector(dtype)

    def put_blob(self, payload: bytes) -> int:
        self._blobs.append(bytes(payload))
        return len(self._blobs) - 1

    def get_blob(self, handle: int) -> bytes:
        return self._blobs[handle]

    def blob_block(self, handle: int) -> tuple[int, int]:
        return handle, len(self._blobs[handle])


class NvmBackend(Backend):
    """NVM backend: vectors are PVectors, blobs live in the pool heap."""

    persistent = True

    def __init__(self, pool: PMemPool):
        self.pool = pool
        self.heap = PHeap(pool)

    def make_vector(
        self, dtype: np.dtype, chunk_capacity: int = DEFAULT_CHUNK_CAPACITY, fill=None
    ) -> PVector:
        return PVector.create(self.pool, dtype, chunk_capacity, fill)

    def attach_vector(self, offset: int) -> PVector:
        """Re-open a persisted vector by pool offset (after restart)."""
        return PVector.attach(self.pool, offset)

    def put_blob(self, payload: bytes) -> int:
        return self.heap.put(payload)

    def get_blob(self, handle: int) -> bytes:
        return self.heap.get(handle)

    def blob_block(self, handle: int) -> tuple[int, int]:
        return self.heap.block(handle)
