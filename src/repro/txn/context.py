"""Per-transaction volatile state."""

from __future__ import annotations

import threading
from enum import Enum

import numpy as np

from repro.storage.table import Table, unpack_rowref
from repro.txn.errors import ConcurrentTransactionUse


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionContext:
    """Volatile bookkeeping for one transaction.

    The durable twin of this object is the transaction-table slot; this
    side holds the snapshot, the operation list mirror (so commit does
    not re-read NVM), and the own-write sets used to adjust visibility.
    """

    def __init__(self, tid: int, snapshot_cid: int, slot: int):
        self.tid = tid
        self.snapshot_cid = snapshot_cid
        self.slot = slot
        self.state = TxnState.ACTIVE
        self.ops: list[tuple[int, int, int]] = []  # (kind, table_id, ref)
        # Own inserts: per table, [first_delta_index, count] ranges
        # (adjacent batches coalesce), so a million-row batch costs two
        # ints, not a million entries.
        self.own_insert_ranges: dict[int, list[list[int]]] = {}
        self.own_invalidated: dict[int, set[int]] = {}
        # Table generation observed at first touch (query or write).
        # A rowref is only meaningful within the generation it was read
        # from; ref-consuming operations compare against the live
        # generation and raise a retryable conflict after a merge
        # cutover swapped the partitions underneath.
        self.table_generations: dict[int, int] = {}
        self.cid: int | None = None
        # Cross-thread misuse detection: contexts are single-threaded,
        # but nothing used to stop two threads from interleaving ops on
        # one context and silently corrupting the undo bookkeeping.
        # ``enter_op``/``exit_op`` bracket every manager operation and
        # raise instead. Re-entrant for one thread (update = invalidate
        # + insert nests).
        self._op_lock = threading.Lock()
        self._op_thread: int | None = None
        self._op_depth = 0

    def enter_op(self) -> None:
        """Claim the context for the calling thread for one operation."""
        me = threading.get_ident()
        with self._op_lock:
            if self._op_thread is not None and self._op_thread != me:
                raise ConcurrentTransactionUse(
                    f"transaction {self.tid} is already executing an "
                    f"operation on thread {self._op_thread}; a "
                    "TransactionContext must not be shared between "
                    "threads — begin one transaction per thread"
                )
            self._op_thread = me
            self._op_depth += 1

    def exit_op(self) -> None:
        """Release the per-operation claim taken by :meth:`enter_op`."""
        with self._op_lock:
            self._op_depth -= 1
            if self._op_depth <= 0:
                self._op_depth = 0
                self._op_thread = None

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def is_read_only(self) -> bool:
        return not self.ops

    def note_table_generation(self, table: Table) -> None:
        """Pin the generation refs handed to this transaction came from."""
        self.table_generations.setdefault(table.table_id, table.generation)

    def generation_changed(self, table: Table) -> bool:
        """True when the table merged since this transaction first saw it."""
        pinned = self.table_generations.setdefault(
            table.table_id, table.generation
        )
        return pinned != table.generation

    def note_insert_range(self, table_id: int, first: int, count: int) -> None:
        """Track a contiguous delta-row batch as our own insert."""
        ranges = self.own_insert_ranges.setdefault(table_id, [])
        if ranges and ranges[-1][0] + ranges[-1][1] == first:
            ranges[-1][1] += count
        else:
            ranges.append([first, count])

    def note_invalidate(self, table_id: int, ref: int) -> None:
        self.own_invalidated.setdefault(table_id, set()).add(ref)

    def sees_own_insert(self, table_id: int, ref: int) -> bool:
        is_delta, index = unpack_rowref(ref)
        if not is_delta:
            return False
        return any(
            first <= index < first + count
            for first, count in self.own_insert_ranges.get(table_id, ())
        )

    def sees_own_invalidation(self, table_id: int, ref: int) -> bool:
        return ref in self.own_invalidated.get(table_id, ())

    def row_visible(self, table: Table, ref: int) -> bool:
        """Full visibility check for a single row version."""
        if self.sees_own_invalidation(table.table_id, ref):
            return False
        if self.sees_own_insert(table.table_id, ref):
            return True
        mvcc, index = table.mvcc_for(ref)
        begin = mvcc.get_begin(index)
        end = mvcc.get_end(index)
        return begin <= self.snapshot_cid < end

    def adjust_masks(
        self, table: Table, main_mask: np.ndarray, delta_mask: np.ndarray
    ) -> None:
        """Overlay own inserts/invalidations onto snapshot masks in place."""
        table_id = table.table_id
        for first, count in self.own_insert_ranges.get(table_id, ()):
            delta_mask[first : first + count] = True
        for ref in self.own_invalidated.get(table_id, ()):
            is_delta, index = unpack_rowref(ref)
            (delta_mask if is_delta else main_mask)[index] = False
