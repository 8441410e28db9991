"""Vector abstraction shared by the volatile and NVM storage backends.

:class:`~repro.nvm.pvector.PVector` (persistent) and
:class:`VolatileVector` (DRAM) expose the same surface —
``append``/``extend``/``get``/``set``/``set_range``/``__len__``/
``to_numpy``/``view``/``take``/``iter_views``/``blocks`` — so partition
code is written once and runs on either.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional, Protocol, runtime_checkable

import numpy as np

from repro.nvm.pvector import checked_indices


@runtime_checkable
class VectorLike(Protocol):
    """Structural interface required of column/MVCC vectors."""

    def append(self, value) -> int: ...

    def extend(self, values: np.ndarray, fence: bool = True) -> int: ...

    def get(self, index: int): ...

    def set(self, index: int, value, fence: bool = True) -> None: ...

    def set_range(
        self, start: int, values: np.ndarray, fence: bool = True
    ) -> None: ...

    def __len__(self) -> int: ...

    def to_numpy(self) -> np.ndarray: ...

    def take(self, indices, limit: Optional[int] = None) -> np.ndarray: ...

    def view(self) -> np.ndarray: ...

    def iter_views(self) -> Iterator[np.ndarray]: ...

    def blocks(self) -> Iterator[tuple[int, int]]: ...


def one_chunk(n: int) -> int:
    """Chunk capacity of an immutable structure of ``n`` elements: one
    chunk sized to it, so :meth:`VectorLike.view` reads it in place —
    up to ``1 << 19`` elements (4 MiB of 8-byte ones, so a chunk fits a
    pool extent); past that it spans chunks and ``view`` copies."""
    return min(max(n, 8), 1 << 19)


class VolatileVector:
    """Growable DRAM array with the :class:`VectorLike` interface.

    Backed by an over-allocated numpy buffer (amortised O(1) appends),
    exactly like the delta vectors of a DRAM-resident engine. Growth moves
    it; an in-place store (a commit stamping ``begin``/``end`` from its own
    thread) holds the same lock, so it never lands in the buffer left behind.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, dtype: np.dtype):
        self._dtype = np.dtype(dtype)
        self._buf = np.empty(self._INITIAL_CAPACITY, dtype=self._dtype)
        self._size = 0
        self._move_lock = threading.Lock()

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def blocks(self) -> Iterator[tuple[int, int]]:
        """The backing buffer as one ``(offset, nbytes)`` block (DRAM has
        no pool offset: 0), the shape :meth:`PVector.blocks` yields."""
        yield 0, self._buf.nbytes

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= self._buf.size:
            return
        grown = np.empty(max(self._buf.size * 2, needed), dtype=self._dtype)
        with self._move_lock:
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown

    def append(self, value) -> int:
        """Append one element; returns its index."""
        self._reserve(1)
        self._buf[self._size] = value
        self._size += 1
        return self._size - 1

    def extend(self, values: np.ndarray, fence: bool = True) -> int:
        """Append a batch; returns the index of the first element.
        ``fence`` (here and below) is a no-op for DRAM."""
        values = np.asarray(values, dtype=self._dtype)
        first = self._size
        self._reserve(values.size)
        self._buf[first : first + values.size] = values
        self._size += int(values.size)
        return first

    def get(self, index: int):
        if index >= self._size:
            raise IndexError(f"get({index}) beyond size {self._size}")
        return self._buf[index]

    def __getitem__(self, index: int):
        return self.get(index)

    def set(self, index: int, value, fence: bool = True) -> None:
        """Overwrite an element."""
        if index >= self._size:
            raise IndexError(f"set({index}) beyond size {self._size}")
        with self._move_lock:
            self._buf[index] = value

    def set_range(
        self, start: int, values: np.ndarray, fence: bool = True
    ) -> None:
        """Overwrite a contiguous range below the current size."""
        values = np.asarray(values, dtype=self._dtype)
        if start + values.size > self._size:
            raise IndexError(
                f"set_range([{start}, {start + values.size})) beyond "
                f"size {self._size}"
            )
        with self._move_lock:
            self._buf[start : start + values.size] = values

    def to_numpy(self) -> np.ndarray:
        """Copy of the live contents."""
        return self._buf[: self._size].copy()

    def take(self, indices, limit: Optional[int] = None) -> np.ndarray:
        """Same contract as :meth:`repro.nvm.pvector.PVector.take`."""
        size = self._size  # before the buffer: growth swaps it in first
        bound = size if limit is None else min(limit, size)
        return self._buf[checked_indices(indices, bound)]

    def view(self) -> np.ndarray:
        """Zero-copy read view of the live contents (do not mutate)."""
        out = self._buf[: self._size]
        out.flags.writeable = False
        return out

    def iter_views(self) -> Iterator[np.ndarray]:
        if self._size:
            yield self.view()
