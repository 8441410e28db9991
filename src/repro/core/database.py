"""The engine facade: open a database, run transactions, survive restarts.

``Database`` is the session layer — catalog registry,
transaction routing, queries, and maintenance. *How* state survives a
restart is delegated to a pluggable
:class:`~repro.core.durability.DurabilityDriver`:

========  =====================  ==========================  =================
mode      storage backend        durability                  restart cost
========  =====================  ==========================  =================
``NVM``   pmem pool              in-place persistent         O(in-flight txns)
``LOG``   DRAM                   WAL + checkpoints           O(data + log)
``NONE``  DRAM                   none                        n/a (data lost)
========  =====================  ==========================  =================

Typical usage::

    from repro import Database, EngineConfig, DurabilityMode, DataType

    db = Database("/tmp/shop", EngineConfig(mode=DurabilityMode.NVM))
    db.create_table("items", {"id": DataType.INT64, "name": DataType.STRING})
    with db.begin() as txn:
        txn.insert("items", {"id": 1, "name": "anvil"})
    print(db.query("items").rows())
    db = db.restart()            # instant — survives a crash, too
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Mapping, Optional, Sequence, Union

import time

import numpy as np

from repro.core.config import EngineConfig
from repro.core.durability import DurabilityDriver, create_driver
from repro.core.maintenance import MaintenanceDaemon
from repro.index.groupkey import GroupKeyIndex
from repro.index.table_index import TableIndex
from repro.nvm.pool import PMemPool
from repro.obs import boundary, get_registry, trace_phase
from repro.query.predicate import Predicate
from repro.query.scan import ScanResult, scan
from repro.recovery.report import RecoveryReport
from repro.storage.schema import Batch, ColumnDef, Schema, SchemaError
from repro.storage.table import Table, unpack_rowref
from repro.storage.merge import (
    MergePlan,
    fixup_mvcc,
    fold_generation,
    freeze_plan,
    rebuild_tail_delta,
)
from repro.storage.types import DataType
from repro.txn.context import TransactionContext

SchemaLike = Union[Schema, dict]


def _coerce_schema(schema: SchemaLike) -> Schema:
    if isinstance(schema, Schema):
        return schema
    if not isinstance(schema, Mapping):
        kind = type(schema).__name__
        raise SchemaError(f"a schema is a {{column: DataType}} dict, not {kind}")
    return Schema([ColumnDef(name, dtype) for name, dtype in schema.items()])


def each_outcome(fn, rows: Sequence) -> list:
    """``fn(row)`` per row, in order: its result, or the exception it
    raised — never one row's failure as another's."""
    outcomes: list = []
    for row in rows:
        try:
            outcomes.append(fn(row))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


class Transaction:
    """Public transaction handle (wraps the MVCC context).

    Usable as a context manager: commits on clean exit, aborts on
    exception.
    """

    def __init__(self, db: "Database", ctx: TransactionContext):
        self._db = db
        self.ctx = ctx

    @property
    def tid(self) -> int:
        return self.ctx.tid

    @property
    def is_active(self) -> bool:
        return self.ctx.is_active

    def insert(self, table_name: str, row: dict) -> int:
        """Insert a {column: value} row; returns its rowref."""
        table = self._db.table(table_name)
        ref = self._db._manager.insert(self.ctx, table, table.schema.validate_row(row))
        self._db._index_new_row(table, ref)
        return ref

    def insert_many(self, table_name: str, rows: Batch) -> list[int]:
        """Insert {column: value} rows or {column: list} columns as one batch.

        The batch is validated and dictionary-encoded column-wise, lands
        with one coalesced NVM flush per touched chunk, and produces a
        single WAL record. Returns the rowrefs in input order.
        """
        columns = self._db.table(table_name).schema.validate_columns(rows)
        return self._insert_columns(table_name, columns)

    def _insert_columns(self, table_name: str, columns: list) -> list[int]:
        """:meth:`insert_many` of a batch validated already, by column."""
        table = self._db.table(table_name)
        refs = self._db._manager.insert_many(self.ctx, table, columns)
        self._db._index_new_rows(table, refs)
        return refs

    def update(self, table_name: str, ref: int, changes: dict) -> int:
        """Update a row (insert-only MVCC); returns the new version's ref."""
        table = self._db.table(table_name)
        new_ref = self._db._manager.update(self.ctx, table, ref, changes)
        self._db._index_new_row(table, new_ref)
        return new_ref

    def delete(self, table_name: str, ref: int) -> None:
        """Delete (invalidate) a visible row."""
        table = self._db.table(table_name)
        self._db._manager.invalidate(self.ctx, table, ref)

    def query(
        self, table_name: str, predicate: Optional[Predicate] = None
    ) -> ScanResult:
        """Scan within this transaction's snapshot (sees own writes)."""
        table = self._db.table(table_name)
        # Pin the generation the returned refs belong to: consuming one
        # after an online-merge cutover raises a retryable conflict
        # instead of silently addressing the wrong row.
        self.ctx.note_table_generation(table)
        index = self._db._pick_index(table, predicate)
        return scan(table, predicate=predicate, ctx=self.ctx, index=index)

    def commit(self) -> Optional[int]:
        """Commit; returns the commit id (None when read-only)."""
        cid = self._db._manager.commit(self.ctx)
        self._db._maintenance.notify(self.ctx.ops)
        return cid

    def abort(self) -> None:
        self._db._manager.abort(self.ctx)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.ctx.is_active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class Database:
    """One database instance bound to a directory on disk."""

    def __init__(self, path: str, config: Optional[EngineConfig] = None):
        self.path = path
        self.config = (config or EngineConfig()).validated()
        # A directory an earlier, sharded layout created: its data sits
        # under shard-NNNN/, where no driver looks.
        if os.path.exists(os.path.join(path, "shards.json")):
            raise ValueError(
                f"{path!r} holds shards.json: it was created by the removed "
                "sharded engine and cannot be opened"
            )
        self.mode = self.config.mode
        self._tables_by_id: dict[int, Table] = {}
        self._tables_by_name: dict[str, Table] = {}
        self._indexes: dict[int, dict[str, TableIndex]] = {}
        self._closed = False
        # Shutdown may arrive from several directions at once — a signal
        # handler, a server drain, and an atexit/finaliser path — so the
        # closed-flag check-and-set must be atomic, not just idempotent.
        self._close_lock = threading.Lock()
        # Secondary-index maintenance: TableIndex mutation is not
        # thread-safe, so concurrent writers serialise their on_insert
        # calls here. Coarse by design — index upkeep is cheap next to
        # encode + WAL work, which stays outside.
        self._index_lock = threading.Lock()
        # Merges, checkpoints and DDL are serialised engine-wide: one
        # fold at a time keeps the memory high-water mark bounded and
        # the cutover reasoning simple, and a checkpoint sees a stable
        # set of tables. Reads, writes and commits never wait on it.
        self._maint_lock = threading.Lock()
        self.last_recovery: Optional[RecoveryReport] = None
        os.makedirs(path, exist_ok=True)
        self._driver: DurabilityDriver = create_driver(path, self.config)
        self.last_recovery = self._driver.open(self)
        registry = get_registry()
        registry.counter("engine_recoveries_total", mode=self.mode.value).inc()
        registry.histogram("engine_recovery_seconds", mode=self.mode.value).observe(
            self.last_recovery.total_seconds
        )
        self._maintenance = MaintenanceDaemon(self)
        self._maintenance.start()

    # ------------------------------------------------------------------
    # Registry helpers
    # ------------------------------------------------------------------

    def _register(self, table: Table, indexes: dict[str, TableIndex]) -> None:
        self._tables_by_id[table.table_id] = table
        self._tables_by_name[table.name] = table
        self._indexes[table.table_id] = indexes

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables_by_name[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r}; have {sorted(self._tables_by_name)}"
            ) from None

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables_by_name)

    @property
    def last_cid(self) -> int:
        return self._manager.last_cid

    @property
    def _pool(self) -> Optional[PMemPool]:
        """The pmem pool when running on the NVM driver (else None)."""
        return self._driver.pool

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: SchemaLike) -> Table:
        """Create a table; the definition is immediately durable."""
        schema = _coerce_schema(schema)
        # Not beside a checkpoint: its link lists the tables it read.
        with self._maint_lock:
            if name in self._tables_by_name:
                raise ValueError(f"table {name!r} already exists")
            table = self._driver.create_table(name, schema)
            # Logged before it is registered: no commit on it can
            # reach the log ahead of its definition.
            if self._manager._wal is not None:
                self._manager._wal.log_create_table(
                    table.table_id, name, schema.to_bytes()
                )
            self._register(table, {})
        return table

    def create_index(self, table_name: str, column: str) -> TableIndex:
        """Create (and durably declare) a secondary index."""
        table = self.table(table_name)
        # Not beside a merge: its cutover replaces the index map it read
        # before this index joined it.
        with self._maint_lock:
            if column in self._indexes[table.table_id]:
                raise ValueError(f"index on {table_name}.{column} already exists")
            index = self._build_index(table, column)
            self._driver.publish(table)
            if self._manager._wal is not None:
                self._manager._wal.log_create_index(table.table_id, column)
        return index

    def _build_index(self, table: Table, column: str) -> TableIndex:
        index = TableIndex.build(self.backend, table, column)
        # A new map, as a cutover publishes: writers iterate the one
        # they read without ``_index_lock``'s help.
        indexes = self._indexes[table.table_id]
        self._indexes[table.table_id] = {**indexes, column: index}
        return index

    def indexes_on(self, table_name: str) -> dict[str, TableIndex]:
        """The index registry for one table."""
        return self._indexes[self.table(table_name).table_id]

    def drop_table(self, name: str) -> None:
        """Durably drop a table: a cutover to nothing (see
        :meth:`_untouched`); a later operation on it conflicts.

        On NVM the catalog entry is tombstoned with one atomic flags
        store, after which the table's memory returns to the pool; a
        drop record is synced to the log, where there is one.
        """
        # Not while a merge of it is in flight: both would retire the
        # generation the cutover replaces.
        with self._maint_lock:
            table = self.table(name)
            with self._untouched(table):
                del self._tables_by_name[name]
                del self._tables_by_id[table.table_id]
                table.generation += 1  # refs read from it are stale
            indexes = self._indexes.pop(table.table_id, {})
            self._driver.on_table_dropped(table)
            if self._manager._wal is not None:
                self._manager._wal.log_drop_table(table.table_id)
            self._driver.retire(*table.content, *indexes.values())

    # ------------------------------------------------------------------
    # Transactions and queries
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction."""
        return Transaction(self, self._manager.begin())

    def _index_new_row(self, table: Table, ref: int) -> None:
        indexes = self._indexes.get(table.table_id)
        if not indexes:
            return
        with self._index_lock:
            self._index_new_row_locked(table, ref, indexes)

    def _index_new_row_locked(
        self, table: Table, ref: int, indexes: dict[str, TableIndex]
    ) -> None:
        is_delta, row = unpack_rowref(ref)
        assert is_delta, "new rows always land in the delta"
        for column, index in indexes.items():
            col = table.schema.column_index(column)
            index.on_insert(table.delta.get_code(col, row), row)

    def _index_new_rows(self, table: Table, refs: Sequence[int]) -> None:
        indexes = self._indexes.get(table.table_id)
        if not indexes or not refs:
            return
        # insert_many places the batch contiguously, so index upkeep is
        # one gather of the batch's codes + one add_many per index
        # instead of a python loop over rows.
        is_delta, first = unpack_rowref(refs[0])
        assert is_delta, "new rows always land in the delta"
        rows = np.arange(first, first + len(refs))
        delta = table.delta
        with self._index_lock:
            for column, index in indexes.items():
                ci = table.schema.column_index(column)
                index.on_insert_many(delta.codes_at(ci, rows), first)

    def _pick_index(
        self, table: Table, predicate: Optional[Predicate]
    ) -> Optional[TableIndex]:
        from repro.query.scan import _index_applicable

        if predicate is None:
            return None
        for index in self._indexes[table.table_id].values():
            if _index_applicable(index, predicate):
                return index
        return None

    def query(
        self, table_name: str, predicate: Optional[Predicate] = None
    ) -> ScanResult:
        """Non-transactional scan of the latest committed state."""
        table = self.table(table_name)
        index = self._pick_index(table, predicate)
        return scan(
            table,
            snapshot_cid=self._manager.last_cid,
            predicate=predicate,
            index=index,
        )

    def _autocommit(self, op, table_name: str, payload):
        """Run ``op(txn, table_name, payload)`` as one transaction.

        Returns ``(result, commit id)``. A rejected row aborts, so the
        slot is released and nothing of the batch stays behind. Only
        ``Exception`` aborts: a simulated power failure must propagate
        with nothing executed after the cut.
        """
        txn = self.begin()
        try:
            result = op(txn, table_name, payload)
            return result, txn.commit()
        except Exception:
            if txn.is_active:
                txn.abort()
            raise

    def insert(self, table_name: str, row: dict) -> int:
        """Autocommit single-row insert; returns the rowref."""
        return self._autocommit(Transaction.insert, table_name, row)[0]

    def insert_many(self, table_name: str, rows: Batch) -> list[int]:
        """Autocommit batched insert (one transaction); returns rowrefs."""
        return self._autocommit(Transaction.insert_many, table_name, rows)[0]

    def bulk_insert(self, table_name: str, rows: Sequence[dict]) -> int:
        """``insert_many`` that returns the commit id (``last_cid`` for
        an empty batch)."""
        cid = self._autocommit(Transaction.insert_many, table_name, rows)[1]
        return self.last_cid if cid is None else cid

    def insert_each(self, table_name: str, rows: Sequence[dict]) -> list:
        """Independent single-row inserts sharing one commit.

        Returns, per row in input order, its rowref or the exception
        ``insert(row)`` raises for it alone. Each row is validated once;
        a row that fails is answered without a transaction, and the rest
        commit as one. If that transaction fails it left nothing behind
        (see :meth:`_autocommit`), so each of its rows is inserted alone.
        """
        try:
            schema = self.table(table_name).schema
        except KeyError as exc:
            return [exc] * len(rows)
        try:
            columns = schema.validate_columns(rows)
            outcomes, accepted = [None] * len(rows), range(len(rows))
        except Exception:
            outcomes = each_outcome(schema.validate_row, rows)
            accepted = [
                i for i, outcome in enumerate(outcomes)
                if not isinstance(outcome, Exception)
            ]
            columns = [list(c) for c in zip(*(outcomes[i] for i in accepted))]
        if accepted:
            try:
                refs = self._autocommit(
                    Transaction._insert_columns, table_name, columns
                )[0]
            except Exception:
                batch = [rows[i] for i in accepted]
                refs = each_outcome(lambda row: self.insert(table_name, row), batch)
            for i, ref in zip(accepted, refs):
                outcomes[i] = ref
        return outcomes

    # ------------------------------------------------------------------
    # Maintenance: merge and checkpoint
    # ------------------------------------------------------------------

    def merge(self, table_name: str, online: bool = True) -> None:
        """Fold the delta into a new main generation.

        One sequence either way: freeze (a short exclusive window that
        captures the watermark and the survivor plan), chunked fold,
        then cutover once no transaction holds operations on the table.
        ``online=True`` (the default) releases the operations gate
        between freeze and cutover, so the fold runs concurrently with
        foreground work and yields at every ``MERGE_CHUNK_ROWS``
        boundary. ``online=False`` is the stop-the-world baseline
        experiment E13 compares against: the same code, keeping the
        gate for the whole rebuild.

        Raises ``RuntimeError`` when a transaction held operations on
        the table for longer than ``merge_cutover_timeout_s`` — the old
        generation stays live and the merge can simply be retried.
        """
        t0 = time.perf_counter()
        with self._maint_lock:
            table = self.table(table_name)
            self._driver.sweep_unreachable()
            with trace_phase("merge", table=table_name, online=online):
                self._merge_table(table, online)
        registry = get_registry()
        registry.counter("engine_merges_total").inc()
        registry.histogram("engine_merge_seconds").observe(
            time.perf_counter() - t0
        )
        # Post-cutover housekeeping (LOG-mode checkpoint) runs after the
        # merge lets go of its locks: it is an optimisation, not a
        # correctness step — the merge record already makes the new
        # layout recoverable.
        self._driver.on_merge_complete(table)

    # -- merge machinery -----------------------------------------------

    def _merge_table(self, table: Table, online: bool) -> None:
        cfg = self.config
        gate = table.ops_gate
        # Writers blocked at the freeze resume as soon as the plan
        # exists (online) and append past the watermark while we fold.
        if not gate.acquire_exclusive(cfg.merge_cutover_timeout_s):
            raise RuntimeError(
                f"merge freeze timed out waiting for writers on {table.name!r}"
            )
        held = True
        try:
            with self._manager._lock:
                plan = self._freeze_locked(table)
            if online:
                gate.release_exclusive()
                held = False
            # With the gate kept nobody else can run: no yield, and no
            # ``merge_chunk`` crash point, between chunks.
            new_main = fold_generation(
                table,
                plan,
                self.backend,
                on_chunk=self._merge_chunk_yield if online else None,
            )
            group_keys = self._group_keys_for(table, new_main)
            with self._untouched(table, held, (new_main, *group_keys.values())):
                unlinked = self._cutover_locked(table, plan, new_main, group_keys)
        finally:
            if held:
                gate.release_exclusive()
        # The publish is durable (a power failure inside it never gets
        # here): the old generation's memory may now come back, once
        # the last scan or probe holding it lets go.
        self._driver.retire(*unlinked)

    @contextlib.contextmanager
    def _untouched(self, table: Table, keep_gate=False, abandoned=()):
        """Hold the table's gate (exclusive) and the commit lock once no
        transaction holds operations on ``table`` (commit and abort never
        take the gate); the gate is released between attempts unless the
        caller holds it and keeps it. After ``merge_cutover_timeout_s``:
        RuntimeError, and ``abandoned`` (nobody saw them) retired."""
        gate = table.ops_gate
        deadline = time.monotonic() + self.config.merge_cutover_timeout_s
        pause = 0.0005
        held = keep_gate
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._driver.retire(*abandoned)
                    raise RuntimeError(
                        f"cutover timed out on {table.name!r}: a transaction "
                        "held operations on the table for the whole window; "
                        "nothing changed (retry later)"
                    )
                if held or gate.acquire_exclusive(remaining):
                    held = True
                    with self._manager._lock:
                        if not self._ops_on_table(table):
                            yield
                            return
                    if not keep_gate:
                        gate.release_exclusive()
                        held = False
                time.sleep(pause)
                pause = min(pause * 2, 0.02)
        finally:
            if held and not keep_gate:
                gate.release_exclusive()

    def _merge_chunk_yield(self) -> None:
        boundary.emit("merge_chunk")
        time.sleep(0)  # yield the GIL to foreground threads

    def _freeze_locked(self, table: Table) -> MergePlan:
        """Capture the merge plan (gate exclusive + manager lock held)."""
        snapshots = [
            ctx.snapshot_cid for ctx in self._manager.active.values()
        ]
        horizon = min(min(snapshots, default=self._manager.last_cid),
                      self._manager.last_cid)
        return freeze_plan(table, horizon=horizon, carry_uncommitted=True)

    def _ops_on_table(self, table: Table) -> bool:
        table_id = table.table_id
        return any(
            op_table == table_id
            for ctx in self._manager.active.values()
            for _, op_table, _ in ctx.ops
        )

    def _group_keys_for(self, table: Table, new_main) -> dict[str, GroupKeyIndex]:
        """Pre-build the main-half group-key indexes during the fold
        phase, so the cutover critical section only assembles them."""
        out: dict[str, GroupKeyIndex] = {}
        for column in self._indexes.get(table.table_id, {}):
            ci = table.schema.column_index(column)
            out[column] = GroupKeyIndex.build(self.backend, new_main.columns[ci])
        return out

    def _cutover_locked(
        self,
        table: Table,
        plan: MergePlan,
        new_main,
        group_keys: dict[str, GroupKeyIndex],
    ) -> tuple:
        """Publish the new generation (gate exclusive + manager lock
        held); returns the partitions and indexes it replaced.

        Everything up to the ``merge_cutover`` boundary event builds new
        structures on the side; nothing live is mutated except the new
        generation's own MVCC columns (the fix-up scatter). A crash
        anywhere before the durable publish recovers the old generation.
        """
        old_content = table.content
        old_indexes = self._indexes[table.table_id]
        fixup_mvcc(new_main, plan, table.main.mvcc, table.delta.mvcc)
        new_delta = rebuild_tail_delta(table, plan.watermark, self.backend)
        with trace_phase("index_rebuild"):
            new_indexes = {
                column: TableIndex.from_parts(
                    self.backend,
                    table.schema,
                    column,
                    new_main,
                    new_delta,
                    group_key=group_keys.get(column),
                )
                for column in old_indexes
            }
        boundary.emit("merge_cutover")
        self._indexes[table.table_id] = new_indexes
        table.publish_content(new_main, new_delta)
        table.generation += 1
        with trace_phase("publish"):
            self._driver.publish(table)
            # Replay reaches this record with exactly the MVCC state the
            # fold saw (no commit lands inside this section), so it
            # repeats the fold from the masks.
            if self._manager._wal is not None:
                self._manager._wal.log_merge(
                    table.table_id, plan.watermark, plan.main_mask, plan.delta_mask
                )
        return (*old_content, *old_indexes.values())

    def checkpoint(self) -> int:
        """LOG mode: write a full snapshot; returns bytes written."""
        return self._driver.checkpoint()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Orderly shutdown (marks the pool clean / syncs the log).

        Idempotent and thread-safe: a second close — or a concurrent
        one from a signal-driven shutdown path — is a no-op rather than
        a double-release of the driver's resources.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._maintenance.stop()
        self._driver.close()

    def crash(self, survivor_fraction: float = 0.0, seed: Optional[int] = None) -> None:
        """Simulate a power failure (unflushed state is lost)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._maintenance.stop()
        self._driver.crash(survivor_fraction=survivor_fraction, seed=seed)

    def restart(self, config: Optional[EngineConfig] = None) -> "Database":
        """Close (cleanly) and reopen; returns the new instance."""
        self.close()
        return Database(self.path, config or self.config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def verify(self) -> list[str]:
        """Run the consistency validator over every table.

        Returns a list of invariant violations (empty when consistent) —
        the same checks the failure-injection tests apply after every
        simulated crash.
        """
        from repro.recovery.validator import validate_database

        return validate_database(
            self._tables_by_id.values(), self._manager.last_cid
        )

    def stats(self) -> dict:
        """Engine statistics for reports and benchmarks."""
        out = {
            "mode": self.mode.value,
            "tables": {
                name: table.stats() for name, table in self._tables_by_name.items()
            },
            "commits": self._manager.commits,
            "aborts": self._manager.aborts,
            "conflicts": self._manager.conflicts,
            "last_cid": self._manager.last_cid,
        }
        out.update(self._driver.extra_stats())
        return out

    def metrics_snapshot(self) -> dict:
        """Process metrics plus this instance's driver-level telemetry.

        ``registry`` holds the process-wide
        :class:`~repro.obs.metrics.MetricsRegistry` snapshot (counters,
        gauges, histogram summaries); ``driver`` holds this database's
        own accounting (pmem pool stats on NVM, WAL stats on LOG);
        ``recovery`` is the last recovery's report.
        """
        return {
            "mode": self.mode.value,
            "registry": get_registry().snapshot(),
            "driver": self._driver.extra_stats(),
            "recovery": self.last_recovery.as_dict(),
        }

    def _table_blocks(self, table: Table):
        """``(offset, nbytes)`` of every block the table's partitions
        and indexes own."""
        for part in (*table.content, *self._indexes[table.table_id].values()):
            yield from part.blocks()

    def memory_report(self) -> dict:
        """Where the bytes are, summed from each structure's ``blocks()``.

        ``tables`` maps each table to bytes per structure kind (column
        payloads, dictionaries with their string blobs and persistent
        lookups, MVCC columns, indexes) and their ``total``. On NVM the
        same enumeration closes the pool's ledger: ``catalog`` (root,
        transaction table, entries, descriptors), ``retiring``
        (superseded generations a reader still pins), and
        ``unreachable`` — what is left of ``allocated_bytes`` once
        those and the tables are subtracted.
        """

        def held(*structures) -> int:
            return sum(n for s in structures for _, n in s.blocks())

        tables: dict = {}
        for name, table in self._tables_by_name.items():
            main, delta = table.content
            entry = {
                "main_packed": held(*(c.words for c in main.columns)),
                "main_dictionaries": held(*(c.dictionary for c in main.columns)),
                "main_mvcc": held(main.mvcc),
                "delta_codes": held(*delta.code_vectors),
                "delta_dictionaries": held(*delta.dictionaries),
                "delta_mvcc": held(delta.mvcc),
                "indexes": held(*self._indexes[table.table_id].values()),
            }
            entry["total"] = sum(entry.values())
            tables[name] = entry
        report: dict = {"tables": tables}
        pool = self._pool
        if pool is not None:
            in_tables = sum(entry["total"] for entry in tables.values())
            catalog = sum(n for _, n in self._driver.metadata_blocks())
            retiring = sum(n for _, n in pool.retiring)
            allocated = pool.space()["allocated_bytes"]
            report.update(
                catalog=catalog,
                retiring=retiring,
                allocated_bytes=allocated,
                # Handed out, yet no pointer leads there: what a crash
                # or a kill leaked, until the next sweep collects it.
                unreachable=allocated - in_tables - catalog - retiring,
            )
        return report

    def logical_bytes(self) -> int:
        """Approximate logical dataset size (decoded values)."""
        total = 0
        for table in self._tables_by_id.values():
            rows = table.row_count
            for col in table.schema:
                if col.dtype in (DataType.INT64, DataType.FLOAT64):
                    total += rows * 8
                else:
                    total += rows * 16  # rough average string payload
        return total
