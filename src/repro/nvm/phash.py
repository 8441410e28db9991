"""Persistent open-addressing hash multimap (u64 -> u64).

Used for the persistent delta-index ablation (experiment E7) and the
persistent delta-dictionary option: after a restart the map is usable
immediately, with no O(entries) rebuild.

Layout::

    header (64 B)
      +0  table_offset    -> table block (atomic publish point)
      +8  count           committed entries (advisory; recomputed on attach)
    table block
      +0  capacity        number of slots
      +8  slots           capacity * 24 B, each [state u64][key u64][value u64]

Insert protocol: write key and value, flush, drain, then store
``state = FILLED`` (8-byte atomic) and flush. A crash mid-insert leaves
the slot EMPTY — the half-written key/value bytes are unreachable.
Resize builds a fresh table and publishes it with one 8-byte
``table_offset`` store. A reader on another thread may still be probing
the superseded table, so it is not freed there: the map keeps owning it
(``blocks`` lists it) and it returns to the pool with the map; a restart
forgets the list and leaves such tables to the pool's sweep.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.nvm.pool import PMemPool

_EMPTY = 0
_FILLED = 1
_TOMBSTONE = 2

_SLOT_BYTES = 24
_OFF_TABLE = 0
_OFF_COUNT = 8
_HEADER_BYTES = 64

_MULT = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

DEFAULT_CAPACITY = 64
_MAX_LOAD = 0.66


def _hash(key: int) -> int:
    """Fibonacci hash; good spread for sequential integer keys."""
    x = (key * _MULT) & _MASK
    x ^= x >> 29
    return x


class PHashMap:
    """Persistent multimap from u64 keys to u64 values."""

    def __init__(self, pool: PMemPool, offset: int):
        self._pool = pool
        self.offset = offset
        self._table = pool.read_u64(offset + _OFF_TABLE)
        self._capacity = pool.read_u64(self._table)
        self._count = self._recount()
        # (offset, capacity) of every table this handle has known, the
        # live one last: one value, replaced in one store, so ``blocks``
        # on another thread lists each exactly once.
        self._tables = ((self._table, self._capacity),)

    @classmethod
    def create(
        cls, pool: PMemPool, capacity: int = DEFAULT_CAPACITY
    ) -> "PHashMap":
        """Allocate and persist an empty map."""
        header = pool.allocate(_HEADER_BYTES)
        table = cls._new_table(pool, capacity)
        pool.write_u64(header + _OFF_TABLE, table)
        pool.write_u64(header + _OFF_COUNT, 0)
        pool.persist(header, _HEADER_BYTES)
        return cls(pool, header)

    @classmethod
    def attach(cls, pool: PMemPool, offset: int) -> "PHashMap":
        """Re-open an existing map after a restart — no rebuild needed."""
        return cls(pool, offset)

    @staticmethod
    def _new_table(pool: PMemPool, capacity: int) -> int:
        nbytes = 8 + capacity * _SLOT_BYTES
        table = pool.allocate(nbytes)
        pool.write(table, b"\x00" * nbytes)
        pool.write_u64(table, capacity)
        pool.persist(table, nbytes)
        return table

    def _recount(self) -> int:
        """Exact entry count from slot states (one vectorised pass)."""
        if self._capacity == 0:
            return 0
        raw = self._pool.view(self._table + 8, np.uint64, self._capacity * 3)
        return int(np.count_nonzero(raw[0::3] == _FILLED))

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return self._capacity

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Every pool block this map owns, as ``(offset, nbytes)``."""
        yield self.offset, _HEADER_BYTES
        for table, capacity in self._tables:
            yield table, 8 + capacity * _SLOT_BYTES

    def _slot_offset(self, index: int) -> int:
        return self._table + 8 + index * _SLOT_BYTES

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, key: int, value: int) -> None:
        """Add a (key, value) pair; duplicate keys are allowed."""
        if (self._count + 1) / self._capacity > _MAX_LOAD:
            self._resize(self._capacity * 2)
        pool = self._pool
        index = _hash(key) % self._capacity
        while True:
            off = self._slot_offset(index)
            state = pool.read_u64(off)
            if state != _FILLED:
                pool.write_u64(off + 8, key)
                pool.write_u64(off + 16, value)
                pool.persist(off + 8, 16)
                pool.write_u64(off, _FILLED)
                pool.persist(off, 8)
                self._count += 1
                pool.write_u64(self.offset + _OFF_COUNT, self._count)
                pool.persist(self.offset + _OFF_COUNT, 8)
                return
            index = (index + 1) % self._capacity

    def remove_one(self, key: int, value: int) -> bool:
        """Remove one matching (key, value) pair; returns True if found."""
        pool = self._pool
        index = _hash(key) % self._capacity
        for _ in range(self._capacity):
            off = self._slot_offset(index)
            state = pool.read_u64(off)
            if state == _EMPTY:
                return False
            if (
                state == _FILLED
                and pool.read_u64(off + 8) == key
                and pool.read_u64(off + 16) == value
            ):
                pool.write_u64(off, _TOMBSTONE)
                pool.persist(off, 8)
                self._count -= 1
                pool.write_u64(self.offset + _OFF_COUNT, self._count)
                pool.persist(self.offset + _OFF_COUNT, 8)
                return True
            index = (index + 1) % self._capacity
        return False

    def _resize(self, new_capacity: int) -> None:
        pool = self._pool
        old_table = self._table
        old_capacity = self._capacity
        new_table = self._new_table(pool, new_capacity)
        for i in range(old_capacity):
            off = old_table + 8 + i * _SLOT_BYTES
            if pool.read_u64(off) != _FILLED:
                continue
            key = pool.read_u64(off + 8)
            value = pool.read_u64(off + 16)
            index = _hash(key) % new_capacity
            while True:
                noff = new_table + 8 + index * _SLOT_BYTES
                if pool.read_u64(noff) == _EMPTY:
                    pool.write_u64(noff, _FILLED)
                    pool.write_u64(noff + 8, key)
                    pool.write_u64(noff + 16, value)
                    break
                index = (index + 1) % new_capacity
        pool.persist(new_table, 8 + new_capacity * _SLOT_BYTES)
        # Atomic publish: readers/recovery see either the old complete
        # table or the new complete table, never a mix.
        pool.write_u64(self.offset + _OFF_TABLE, new_table)
        pool.persist(self.offset + _OFF_TABLE, 8)
        self._table = new_table
        self._capacity = new_capacity
        self._tables = (*self._tables, (new_table, new_capacity))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get_all(self, key: int) -> list[int]:
        """All values stored under ``key`` (insertion order not guaranteed)."""
        return list(self.iter_values(key))

    def iter_values(self, key: int) -> Iterator[int]:
        """Yield values stored under ``key``."""
        pool = self._pool
        index = _hash(key) % self._capacity
        for _ in range(self._capacity):
            off = self._slot_offset(index)
            state = pool.read_u64(off)
            if state == _EMPTY:
                return
            if state == _FILLED and pool.read_u64(off + 8) == key:
                yield pool.read_u64(off + 16)
            index = (index + 1) % self._capacity

    def get_first(self, key: int) -> Optional[int]:
        """First value under ``key``, or None."""
        for value in self.iter_values(key):
            return value
        return None

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield every committed (key, value) pair."""
        pool = self._pool
        for i in range(self._capacity):
            off = self._slot_offset(i)
            if pool.read_u64(off) == _FILLED:
                yield pool.read_u64(off + 8), pool.read_u64(off + 16)
