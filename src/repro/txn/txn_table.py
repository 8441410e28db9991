"""Transaction tables: the durable registry of in-flight transactions.

:class:`PersistentTxnTable` lives on NVM. Each transaction occupies one
fixed slot holding its state, tid, commit id, and a chained list of
operation records (write-ahead undo/redo information). The slot's
``state`` field is an 8-byte atomic store:

* ``ACTIVE -> COMMITTING`` (with the cid already persisted in the slot)
  is the durable **commit point**;
* recovery rolls ACTIVE slots back and COMMITTING slots forward, work
  bounded by the number of in-flight transactions — the reason restart
  cost is independent of dataset size.

:class:`VolatileTxnTable` is the DRAM twin used by the log-based
baseline (its durability comes from the WAL instead).

Layout::

    table header (64 B):       +0 slot_count
    slot i (64 B each):        +0 state  +8 tid  +16 cid
                               +24 undo_head  +32 reserved
    undo chunk (16 + 32*24 B): +0 next  +8 count
                               +16 records, each [kind, table_id, rowref]
"""

from __future__ import annotations

import struct
import threading
from typing import Iterator

import numpy as np

from repro.nvm.pool import PMemPool
from repro.txn.errors import TooManyActiveTransactions

SLOT_FREE = 0
SLOT_ACTIVE = 1
SLOT_COMMITTING = 2

#: Operation kinds a transaction-table record names (kind 1, a retired
#: single-row insert, must not be reused).
OP_INVALIDATE = 2
#: Batched delta insert; the record's rowref field packs (first, count).
OP_INSERT_MANY = 3

_RANGE_COUNT_BITS = 32
_RANGE_COUNT_MASK = (1 << _RANGE_COUNT_BITS) - 1


def pack_range_ref(first: int, count: int) -> int:
    """Encode a contiguous delta row range into a u64 record field."""
    if first >= 1 << 32 or count >= 1 << _RANGE_COUNT_BITS:
        raise ValueError(f"range ({first}, {count}) too large to pack")
    return (first << _RANGE_COUNT_BITS) | count


def unpack_range_ref(ref: int) -> tuple[int, int]:
    """Decode a packed row range: (first, count)."""
    return ref >> _RANGE_COUNT_BITS, ref & _RANGE_COUNT_MASK

_SLOT_BYTES = 64
_S_STATE = 0
_S_TID = 8
_S_CID = 16
_S_UNDO = 24

_CHUNK_RECORDS = 32
_RECORD = struct.Struct("<QQQ")  # kind, table_id, rowref
_FRESH_CHUNK = struct.Struct("<QQQQQ")  # next, count, first record
_RECORD_BYTES = _RECORD.size
_CHUNK_BYTES = 16 + _CHUNK_RECORDS * _RECORD_BYTES
_C_NEXT = 0
_C_COUNT = 8

DEFAULT_SLOTS = 256


class PersistentTxnTable:
    """Fixed-slot transaction table on NVM."""

    def __init__(self, pool: PMemPool, offset: int):
        self._pool = pool
        self.offset = offset
        self.slot_count = pool.read_u64(offset)
        # Volatile caches: free slots and, per busy slot, the offset of
        # the last undo chunk (for O(1) appends).
        self._free: list[int] = [
            i for i, (state, *_) in enumerate(self._slots()) if state == SLOT_FREE
        ]
        self._tail_chunk: dict[int, int] = {}
        self._chunk_pool: list[int] = []
        # Guards the volatile caches (free list, tail-chunk map, chunk
        # pool) against concurrent begin/record/mark_free. Slot payload
        # writes need no latch — a slot belongs to one transaction.
        self._latch = threading.Lock()

    @classmethod
    def create(cls, pool: PMemPool, slot_count: int = DEFAULT_SLOTS) -> "PersistentTxnTable":
        """Allocate and zero a fresh transaction table."""
        nbytes = 64 + slot_count * _SLOT_BYTES
        offset = pool.allocate(nbytes)
        pool.write(offset, b"\x00" * nbytes)
        pool.write_u64(offset, slot_count)
        pool.persist(offset, nbytes)
        return cls(pool, offset)

    @classmethod
    def attach(cls, pool: PMemPool, offset: int) -> "PersistentTxnTable":
        """Re-open after restart (recovery then inspects ``in_flight``)."""
        return cls(pool, offset)

    def _slot(self, index: int) -> int:
        return self.offset + 64 + index * _SLOT_BYTES

    def _slots(self) -> list[list[int]]:
        """``[state, tid, cid]`` of every slot, read in one go."""
        n = self.slot_count * _SLOT_BYTES // 8
        words = self._pool.read_array(self._slot(0), np.uint64, n)
        return words.reshape(self.slot_count, -1)[:, :3].tolist()

    def blocks(self) -> list[tuple[int, int]]:
        """Every pool block the table owns, as ``(offset, nbytes)``:
        the slot array, recycled undo chunks, and each busy slot's
        chain. A chunk being linked is already its slot's tail here."""
        pool = self._pool
        with self._latch:
            chunks = set(self._chunk_pool) | set(self._tail_chunk.values())
            for index in self._tail_chunk:
                chunk = pool.read_u64(self._slot(index) + _S_UNDO)
                while chunk:
                    chunks.add(chunk)
                    chunk = pool.read_u64(chunk + _C_NEXT)
        table = (self.offset, 64 + self.slot_count * _SLOT_BYTES)
        return [table] + [(chunk, _CHUNK_BYTES) for chunk in sorted(chunks)]

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------

    def begin(self, tid: int) -> int:
        """Claim a slot for transaction ``tid``; returns the slot index."""
        with self._latch:
            if not self._free:
                raise TooManyActiveTransactions(
                    f"all {self.slot_count} transaction slots in use"
                )
            index = self._free.pop()
        slot = self._slot(index)
        pool = self._pool
        # One line, one persist: the fields are stored ahead of the
        # state, and stores to a line persist in program order.
        pool.write_u64(slot + _S_TID, tid)
        pool.write_u64(slot + _S_CID, 0)
        pool.write_u64(slot + _S_UNDO, 0)
        pool.write_u64(slot + _S_STATE, SLOT_ACTIVE)
        pool.persist(slot, 32)
        return index

    def record(self, index: int, kind: int, table_id: int, rowref: int) -> None:
        """Durably append one operation record to the slot's chain."""
        pool = self._pool
        with self._latch:
            tail = self._tail_chunk.get(index, 0)
            count = pool.read_u64(tail + _C_COUNT) if tail else _CHUNK_RECORDS
            if count == _CHUNK_RECORDS:
                fresh = self._tail_chunk[index] = self._new_chunk()
        if count == _CHUNK_RECORDS:
            # A fresh chunk is built whole — ``next = 0``, ``count = 1``
            # and the record share its first line, unreachable so far —
            # persisted, and only then linked into the chain.
            pool.write(fresh, _FRESH_CHUNK.pack(0, 1, kind, table_id, rowref))
            pool.persist(fresh, _FRESH_CHUNK.size)
            link = tail + _C_NEXT if tail else self._slot(index) + _S_UNDO
            pool.write_u64(link, fresh)
            pool.persist(link, 8)
            return
        rec = tail + 16 + count * _RECORD_BYTES
        pool.write(rec, _RECORD.pack(kind, table_id, rowref))
        pool.persist(rec, _RECORD_BYTES)
        pool.write_u64(tail + _C_COUNT, count + 1)
        pool.persist(tail + _C_COUNT, 8)

    def unrecord(self, index: int) -> None:
        """Durably drop the slot's newest operation record (a statement
        its transaction has already undone)."""
        with self._latch:
            tail = self._tail_chunk[index]
        count = self._pool.read_u64(tail + _C_COUNT)
        self._pool.write_u64(tail + _C_COUNT, count - 1)
        self._pool.persist(tail + _C_COUNT, 8)

    def _new_chunk(self) -> int:
        if self._chunk_pool:
            return self._chunk_pool.pop()
        return self._pool.allocate(_CHUNK_BYTES)

    def set_committing(self, index: int, cid: int) -> None:
        """Durable commit point: the cid, then the state — stored in
        that order to one line, so one persist."""
        pool = self._pool
        slot = self._slot(index)
        pool.write_u64(slot + _S_CID, cid)
        pool.write_u64(slot + _S_STATE, SLOT_COMMITTING)
        pool.persist(slot, 24)

    def mark_free(self, index: int) -> None:
        """Release a slot after commit apply or rollback.

        The slot's undo chunks are recycled onto a volatile free list
        only after the FREE state is durable, so a crash can never hand
        a chunk to two transactions.
        """
        slot = self._slot(index)
        pool = self._pool
        chunk = pool.read_u64(slot + _S_UNDO)
        pool.write_u64(slot + _S_STATE, SLOT_FREE)
        pool.persist(slot + _S_STATE, 8)
        with self._latch:
            while chunk:
                self._chunk_pool.append(chunk)
                chunk = pool.read_u64(chunk + _C_NEXT)
            self._tail_chunk.pop(index, None)
            self._free.append(index)

    # ------------------------------------------------------------------
    # Introspection (recovery)
    # ------------------------------------------------------------------

    def state(self, index: int) -> int:
        return self._pool.read_u64(self._slot(index) + _S_STATE)

    def tid(self, index: int) -> int:
        return self._pool.read_u64(self._slot(index) + _S_TID)

    def cid(self, index: int) -> int:
        return self._pool.read_u64(self._slot(index) + _S_CID)

    def records(self, index: int) -> list[tuple[int, int, int]]:
        """All durable operation records of a slot, in append order."""
        pool = self._pool
        out = []
        chunk = pool.read_u64(self._slot(index) + _S_UNDO)
        while chunk:
            count = pool.read_u64(chunk + _C_COUNT)
            for i in range(count):
                rec = chunk + 16 + i * _RECORD_BYTES
                out.append(
                    (
                        pool.read_u64(rec),
                        pool.read_u64(rec + 8),
                        pool.read_u64(rec + 16),
                    )
                )
            chunk = pool.read_u64(chunk + _C_NEXT)
        return out

    def in_flight(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (slot, state, tid, cid) for every non-FREE slot."""
        for i, (state, tid, cid) in enumerate(self._slots()):
            if state != SLOT_FREE:
                yield i, state, tid, cid


class VolatileTxnTable:
    """DRAM transaction table for the log-based baseline.

    Mirrors the persistent interface so the transaction manager is
    agnostic; contents simply vanish with the process (the WAL carries
    the durable information instead).
    """

    def __init__(self, slot_count: int = DEFAULT_SLOTS):
        self.slot_count = slot_count
        self._free = list(range(slot_count))
        self._state = [SLOT_FREE] * slot_count
        self._tid = [0] * slot_count
        self._cid = [0] * slot_count
        self._records: list[list[tuple[int, int, int]]] = [
            [] for _ in range(slot_count)
        ]
        self._latch = threading.Lock()

    def begin(self, tid: int) -> int:
        with self._latch:
            if not self._free:
                raise TooManyActiveTransactions(
                    f"all {self.slot_count} transaction slots in use"
                )
            index = self._free.pop()
        self._state[index] = SLOT_ACTIVE
        self._tid[index] = tid
        self._cid[index] = 0
        self._records[index] = []
        return index

    def record(self, index: int, kind: int, table_id: int, rowref: int) -> None:
        self._records[index].append((kind, table_id, rowref))

    def unrecord(self, index: int) -> None:
        self._records[index].pop()

    def set_committing(self, index: int, cid: int) -> None:
        self._cid[index] = cid
        self._state[index] = SLOT_COMMITTING

    def mark_free(self, index: int) -> None:
        self._state[index] = SLOT_FREE
        with self._latch:
            self._free.append(index)

    def state(self, index: int) -> int:
        return self._state[index]

    def tid(self, index: int) -> int:
        return self._tid[index]

    def cid(self, index: int) -> int:
        return self._cid[index]

    def records(self, index: int) -> list[tuple[int, int, int]]:
        return list(self._records[index])

    def in_flight(self) -> Iterator[tuple[int, int, int, int]]:
        for i in range(self.slot_count):
            if self._state[i] != SLOT_FREE:
                yield i, self._state[i], self._tid[i], self._cid[i]
