"""Transaction manager: MVCC protocol over main/delta tables.

The manager is storage-agnostic (works on volatile or NVM tables) and
log-agnostic (an optional WAL hook receives every operation). The
durable commit point depends on the engine mode:

* **NVM** — the transaction-table slot's ``COMMITTING`` state store;
* **LOG** — the WAL commit record reaching disk (per the group-commit
  policy);
* **NONE** — nothing is durable; commit is only an MVCC state change.

Updates follow Hyrise's insert-only approach: the old row version is
invalidated (``end_cid``) and a new version is inserted into the delta.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from repro.storage.mvcc import INFINITY_CID, NO_TID
from repro.storage.table import _DELTA_BIT, Table, unpack_rowref
from repro.storage.types import Value
from repro.txn.context import TransactionContext, TxnState
from repro.txn.errors import TransactionAborted, TransactionConflict
from repro.txn.txn_table import (
    OP_INSERT_MANY,
    OP_INVALIDATE,
    pack_range_ref,
    unpack_range_ref,
)


class CidStore(Protocol):
    """Holder of the global last-committed commit id."""

    @property
    def last_cid(self) -> int: ...

    def advance(self, cid: int) -> None: ...


class VolatileCidStore:
    """DRAM cid store (LOG / NONE modes)."""

    def __init__(self, last_cid: int = 0):
        self._last = last_cid
        self._lock = threading.Lock()

    @property
    def last_cid(self) -> int:
        return self._last

    def advance(self, cid: int) -> None:
        # Locked check-then-set: a bare ``if cid > last: last = cid``
        # can go backwards when two committers interleave.
        with self._lock:
            if cid > self._last:
                self._last = cid


class TidAllocator(Protocol):
    """Source of unique transaction ids."""

    def next(self) -> int: ...


class VolatileTidAllocator:
    """Monotonic tids starting at 1 (0 is :data:`NO_TID`).

    Backed by :func:`itertools.count`, whose ``next`` is atomic under
    the GIL — two threads beginning transactions concurrently can never
    draw the same tid.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next(self) -> int:
        return next(self._counter)


class WalHook(Protocol):
    """Interface the WAL module implements to observe transactions."""

    def log_insert_many(
        self,
        tid: int,
        table_id: int,
        first_row: int,
        columns: Sequence[Sequence[Value]],
    ) -> None: ...

    def log_invalidate(self, tid: int, table_id: int, ref: int) -> None: ...

    def append_commit(self, tid: int, cid: int) -> int: ...

    def commit_barrier(self, lsn: int) -> None: ...

    def log_abort(self, tid: int) -> None: ...


class TransactionManager:
    """Coordinates begin/insert/update/delete/commit/abort."""

    def __init__(
        self,
        txn_table,
        cid_store: CidStore,
        tid_allocator: TidAllocator,
        table_lookup: Callable[[int], Table],
        wal: Optional[WalHook] = None,
    ):
        self._txn_table = txn_table
        self._cids = cid_store
        self._tids = tid_allocator
        self._table_lookup = table_lookup
        self._wal = wal
        # Commit lock: serialises the commit critical section — cid
        # allocation, commit-record append, durable commit point, MVCC
        # apply, cid advance — so commit ids become visible in order
        # (a later cid can never apply before an earlier one, which
        # keeps every snapshot prefix-consistent). The fsync wait of
        # the group-commit barrier happens OUTSIDE this lock, which is
        # what lets concurrent committers share one fsync. Aborts and
        # counter updates take the same lock.
        self._lock = threading.RLock()
        self.active: dict[int, TransactionContext] = {}
        self.commits = 0
        self.aborts = 0
        self.conflicts = 0

    @property
    def last_cid(self) -> int:
        return self._cids.last_cid

    def attach_wal(self, wal: Optional[WalHook]) -> None:
        """Mirror every later operation into ``wal`` (None: stop), after
        staging each open transaction's operations so far, so its commit
        writes one whole group. The caller holds every ops gate
        exclusively (no operation is half done) and the commit lock."""
        if wal is not None:
            for ctx in self.active.values():
                for kind, table_id, ref in ctx.ops:
                    if kind == OP_INVALIDATE:
                        wal.log_invalidate(ctx.tid, table_id, ref)
                        continue
                    first, count = unpack_range_ref(ref)
                    delta = self._table_lookup(table_id).delta
                    rows = np.arange(first, first + count)
                    columns = [
                        delta.decode_column(c, rows)
                        for c in range(len(delta.dictionaries))
                    ]
                    wal.log_insert_many(ctx.tid, table_id, first, columns)
        self._wal = wal

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(self) -> TransactionContext:
        """Start a transaction with a snapshot of the current commit id."""
        tid = self._tids.next()
        slot = self._txn_table.begin(tid)
        ctx = TransactionContext(tid, self._cids.last_cid, slot)
        with self._lock:
            self.active[tid] = ctx
        return ctx

    def _require_active(self, ctx: TransactionContext) -> None:
        if not ctx.is_active:
            raise TransactionAborted(f"transaction {ctx.tid} is {ctx.state.value}")

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(
        self, ctx: TransactionContext, table: Table, values: Sequence[Value]
    ) -> int:
        """Insert one row (values in schema order); returns its rowref.

        A thin wrapper over :meth:`insert_many`, so the scalar and batch
        write paths can never diverge semantically.
        """
        return self.insert_many(ctx, table, [[value] for value in values])[0]

    def insert_many(
        self,
        ctx: TransactionContext,
        table: Table,
        columns: Sequence[Sequence[Value]],
    ) -> list[int]:
        """Insert a batch given by column (in schema order); returns rowrefs.

        The vectorized write path: columns are bulk dictionary-encoded,
        appended with one coalesced extend per vector, and the whole
        batch publishes atomically with the begin-vector extend. The
        undo record is written *first* (like ``invalidate``): a crash
        before the publish rolls back to a no-op, and a published batch
        always has the record recovery needs to clear its row locks.
        One batched WAL record replaces per-row framing.
        """
        ctx.enter_op()
        try:
            self._require_active(ctx)
            n = len(columns[0])
            if not n:
                return []
            # Dictionary encoding happens outside the append reservation
            # (each dictionary takes its own insert lock): codes are
            # position-independent, only row placement needs the latch.
            # It also happens outside the ops gate, to keep the shared
            # section tiny — but codes are only valid against the delta
            # whose dictionaries assigned them, so if a merge cutover
            # swapped the delta in between, re-encode against the new
            # one (checked under the gate, where the delta is stable).
            delta = table.delta
            encoded = delta.encode_columns(columns)
            with table.ops_gate.shared():
                self._check_registered(table)
                if table.delta is not delta:
                    delta = table.delta
                    encoded = delta.encode_columns(columns)
                with delta.write_lock:
                    first = delta.row_count
                    range_ref = pack_range_ref(first, n)
                    self._txn_table.record(
                        ctx.slot, OP_INSERT_MANY, table.table_id, range_ref
                    )
                    delta.insert_rows_encoded(encoded, ctx.tid)
                # Undo bookkeeping inside the gate: once it is recorded,
                # a cutover sees this transaction as having operations
                # on the table and waits for commit/abort, keeping the
                # refs below valid for the transaction's lifetime.
                ctx.ops.append((OP_INSERT_MANY, table.table_id, range_ref))
                if self._wal is not None:
                    # Outside the latch: the record names its position.
                    # A batch the log rejects (RecordTooLarge) is placed
                    # but can never be replayed, so it must not commit:
                    # undo this one statement (its rows stay dead, their
                    # locks released); the transaction stays usable.
                    try:
                        self._wal.log_insert_many(
                            ctx.tid, table.table_id, first, columns
                        )
                    except Exception:
                        rollback_operations(self._table_lookup, [ctx.ops.pop()])
                        self._txn_table.unrecord(ctx.slot)
                        raise
                ctx.note_insert_range(table.table_id, first, n)
                ctx.note_table_generation(table)
            start = _DELTA_BIT | first  # a delta rowref
            return list(range(start, start + n))
        finally:
            ctx.exit_op()

    def invalidate(self, ctx: TransactionContext, table: Table, ref: int) -> None:
        """Delete a visible row version (lock it and mark for end_cid).

        Raises :class:`TransactionConflict` when the row is locked by
        another transaction or no longer visible.
        """
        ctx.enter_op()
        try:
            self._require_active(ctx)
            with table.ops_gate.shared():
                self._check_registered(table)
                self._check_generation(ctx, table, ref)
                if not ctx.row_visible(table, ref):
                    self._count_conflict()
                    raise TransactionConflict(
                        f"row {ref} not visible to txn {ctx.tid}"
                    )
                mvcc, index = table.mvcc_for(ref)
                # Compare-and-swap on the tid row lock: the conflict
                # checks, the undo record, and the lock store form one
                # atomic section under the partition's tid latch — two
                # racing invalidators must never both end up holding
                # undo records for the same row (rollback releases the
                # lock unconditionally). Within the section: record
                # first (write-ahead), then take the lock, so a crash in
                # between rolls back to a no-op (tid is still NO_TID).
                with mvcc.lock:
                    owner = mvcc.get_tid(index)
                    if owner not in (NO_TID, ctx.tid):
                        self._count_conflict()
                        raise TransactionConflict(
                            f"row {ref} locked by txn {owner} "
                            f"(we are {ctx.tid})"
                        )
                    if mvcc.get_end(index) != INFINITY_CID:
                        self._count_conflict()
                        raise TransactionConflict(
                            f"row {ref} already invalidated"
                        )
                    self._txn_table.record(
                        ctx.slot, OP_INVALIDATE, table.table_id, ref
                    )
                    mvcc.set_tid(index, ctx.tid)
                if self._wal is not None:
                    self._wal.log_invalidate(ctx.tid, table.table_id, ref)
                # Inside the gate (like insert_many): once recorded, a
                # cutover waits for this transaction, keeping ``ref``
                # stable until commit/abort.
                ctx.ops.append((OP_INVALIDATE, table.table_id, ref))
                ctx.note_invalidate(table.table_id, ref)
        finally:
            ctx.exit_op()

    def _check_registered(self, table: Table) -> None:
        """Reject a dropped table (under the shared gate): no commit,
        abort, slot or log group then ever names one."""
        try:
            if self._table_lookup(table.table_id) is table:
                return
        except KeyError:
            pass
        self._count_conflict()
        raise TransactionConflict(f"table {table.name} was dropped")

    def _check_generation(
        self, ctx: TransactionContext, table: Table, ref: int
    ) -> None:
        """Reject refs that predate an online-merge cutover.

        A cutover only runs when no active transaction holds operations
        on the table, so a transaction that merely *read* refs can lose
        them to a merge; consuming such a ref afterwards would address
        the wrong row. Conservative and retryable: the transaction pins
        the generation at first touch and conflicts on any change.
        """
        if ctx.generation_changed(table):
            self._count_conflict()
            raise TransactionConflict(
                f"table {table.name} merged since txn {ctx.tid} first "
                f"read it; rowref {ref} is stale — retry the transaction"
            )

    def _count_conflict(self) -> None:
        with self._lock:
            self.conflicts += 1

    def update(
        self, ctx: TransactionContext, table: Table, ref: int, changes: dict
    ) -> int:
        """Insert-only update: invalidate ``ref``, insert the new version.

        Returns the new row's rowref.
        """
        ctx.enter_op()
        try:
            self._require_active(ctx)
            unknown = set(changes) - set(table.schema.names)
            if unknown:
                raise KeyError(f"unknown columns {sorted(unknown)}")
            # Pin the generation before reading the old values: if a
            # cutover lands between this read and the invalidate, the
            # invalidate's generation check conflicts instead of
            # silently invalidating whatever row now sits at ``ref``.
            ctx.note_table_generation(table)
            try:
                old_values = table.get_row(ref)
            except IndexError:
                # The ref predates a merge cutover that shrank the
                # delta; surface it as a retryable conflict (invalidate
                # below would reject it anyway via the generation pin).
                self._count_conflict()
                raise TransactionConflict(
                    f"row {ref} vanished in a merge; retry txn {ctx.tid}"
                ) from None
            self.invalidate(ctx, table, ref)
            new_values = list(old_values)
            for name, value in changes.items():
                idx = table.schema.column_index(name)
                new_values[idx] = table.schema.columns[idx].dtype.validate(
                    value
                )
            return self.insert(ctx, table, new_values)
        finally:
            ctx.exit_op()

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def commit(self, ctx: TransactionContext) -> Optional[int]:
        """Commit; returns the commit id (None for read-only).

        The critical section under the commit lock is kept tiny — cid
        allocation, commit-record append (no fsync), the durable NVM
        commit point, the MVCC apply, and the cid advance. Applying
        *before* advancing, both inside the lock, guarantees that once
        a snapshot can read cid N, every commit ≤ N is fully applied.
        The group-commit barrier (the fsync wait) runs after the lock
        is released, so many committers amortise one fsync.
        """
        ctx.enter_op()
        barrier_lsn: Optional[int] = None
        try:
            self._require_active(ctx)
            if ctx.is_read_only:
                with self._lock:
                    ctx.state = TxnState.COMMITTED
                    self._txn_table.mark_free(ctx.slot)
                    del self.active[ctx.tid]
                    self.commits += 1
                return None
            with self._lock:
                cid = self._cids.last_cid + 1
                wal = self._wal  # once: a stop() may unwire it before the barrier
                if wal is not None:
                    # Durable point for the log-based engine (once the
                    # record reaches disk, per the group-commit policy).
                    barrier_lsn = wal.append_commit(ctx.tid, cid)
                # Durable point for the NVM engine: COMMITTING store.
                self._txn_table.set_committing(ctx.slot, cid)
                # The fix-ups are flushed, not fenced: ``cid`` is new,
                # so the advance below stores, and its barrier makes
                # them durable ahead of the slot's FREE.
                apply_operations(self._table_lookup, ctx.ops, cid, fence=False)
                self._cids.advance(cid)
                self._txn_table.mark_free(ctx.slot)
                ctx.state = TxnState.COMMITTED
                ctx.cid = cid
                del self.active[ctx.tid]
                self.commits += 1
        finally:
            ctx.exit_op()
        if barrier_lsn is not None:
            wal.commit_barrier(barrier_lsn)
        return cid

    def abort(self, ctx: TransactionContext) -> None:
        """Roll back every operation and release the slot."""
        ctx.enter_op()
        try:
            self._require_active(ctx)
            with self._lock:
                rollback_operations(self._table_lookup, ctx.ops)
                if self._wal is not None:
                    self._wal.log_abort(ctx.tid)
                self._txn_table.mark_free(ctx.slot)
                ctx.state = TxnState.ABORTED
                del self.active[ctx.tid]
                self.aborts += 1
        finally:
            ctx.exit_op()


def apply_operations(
    table_lookup: Callable[[int], Table],
    ops: Sequence[tuple[int, int, int]],
    cid: int,
    fence: bool = True,
) -> None:
    """Write commit ids into MVCC columns (idempotent — used by redo).

    ``fence=False`` leaves the stores flushed for a barrier the caller
    issues before it frees the slot; recovery keeps the default, since
    its cid advance may store (and so fence) nothing.
    """
    for kind, table_id, ref in ops:
        table = table_lookup(table_id)
        if kind == OP_INSERT_MANY:
            first, count = unpack_range_ref(ref)
            mvcc = table.delta.mvcc
            # One chunk-coalesced store per MVCC vector instead of a
            # per-row loop. Clamp defensively: the publish precedes the
            # durable commit point, so normally count rows exist.
            count = min(count, max(table.delta.row_count - first, 0))
            mvcc.set_begin_range(first, count, cid, fence)
            mvcc.set_tid_range(first, count, NO_TID, fence)
            continue
        mvcc, index = table.mvcc_for(ref)
        mvcc.set_end(index, cid, fence)
        mvcc.set_tid(index, NO_TID, fence)


def rollback_operations(
    table_lookup: Callable[[int], Table],
    ops: Sequence[tuple[int, int, int]],
) -> None:
    """Undo uncommitted operations (idempotent — used by recovery).

    Inserted rows keep ``begin_cid == INF`` forever (invisible garbage
    collected by the next merge); invalidation locks are released.
    """
    for kind, table_id, ref in ops:
        table = table_lookup(table_id)
        if kind == OP_INSERT_MANY:
            first, count = unpack_range_ref(ref)
            # A crash before the batch published leaves row_count at (or
            # below) ``first``; the clamped count is then zero and the
            # whole torn batch vanishes as a no-op.
            count = min(count, max(table.delta.row_count - first, 0))
            table.delta.mvcc.set_tid_range(first, count, NO_TID)
            continue
        is_delta, index = unpack_rowref(ref)
        part = table.delta if is_delta else table.main
        if index >= part.row_count:
            # The operation's data mutation never published (crash
            # between the undo record and the data write).
            continue
        part.mvcc.set_tid(index, NO_TID)
