"""Durability drivers: the pluggable layer beneath the engine facade.

Each :class:`~repro.core.database.Database` owns exactly one driver that
encapsulates *how* state survives (or doesn't survive) a restart:

* :class:`NvmDriver`  — the paper's engine: every structure lives on a
  :class:`~repro.nvm.pool.PMemPool`; recovery is the O(in-flight) txn
  fix-up pass over the persistent transaction table.
* :class:`LogDriver`  — the classic baseline: DRAM structures, a
  write-ahead log with group commit, and checkpoints; recovery replays.
* :class:`NoneDriver` — DRAM only; nothing survives (the overhead floor).

The facade calls a driver at well-defined hook points (open, DDL,
content publication, checkpoint, close, crash) and never branches on the
durability mode itself. DDL reaches the log the way rows do: through
the transaction manager's WAL hook (:attr:`DurabilityDriver.wal` — LOG's
writer, NVM's ship log while a shipper is attached, else none), where
the facade writes each DDL record once; a driver's DDL hooks only keep
its own storage in step. Drivers hold the mode's resources (pool,
catalog, WAL handle) and are responsible for releasing them — including
on a *failed* open, so a corrupt directory never leaks mmap handles.
"""

from __future__ import annotations

import os
import weakref
from abc import ABC, abstractmethod
from contextlib import ExitStack
from typing import TYPE_CHECKING, Optional

import time

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.nvm_catalog import NvmCatalog
from repro.nvm.pool import PMemPool
from repro.obs import get_registry
from repro.recovery.log_recovery import LogReplayer, recover_log
from repro.recovery.nvm_recovery import recover_nvm
from repro.recovery.report import RecoveryReport
from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.txn.manager import (
    TransactionManager,
    VolatileCidStore,
    VolatileTidAllocator,
)
from repro.txn.txn_table import VolatileTxnTable
from repro.wal.checkpoint import CheckpointChain, chain_dir, snapshot_table
from repro.wal.writer import LogWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


class DurabilityDriver(ABC):
    """Strategy interface between the facade and one durability stack.

    ``open`` binds the driver to its engine (the driver needs the
    engine's table registry for recovery registration, index rebuilds,
    and checkpoint snapshots); every later hook uses that binding. The
    binding is weak: the engine owns its driver, and a dead engine is
    freed by reference counting, without the cyclic collector.
    """

    mode: DurabilityMode

    def __init__(self, path: str, config: EngineConfig):
        self.path = path
        self.config = config
        self._engine = lambda: None

    _db = property(lambda self: self._engine())

    # -- lifecycle -----------------------------------------------------

    @abstractmethod
    def open(self, db: "Database") -> RecoveryReport:
        """Attach/recover durable state; wire the engine's backend and
        transaction manager; register recovered tables on ``db``."""

    @property
    def wal(self) -> Optional[LogWriter]:
        """The log rows and DDL records reach: the transaction manager's
        WAL hook (LOG's writer; NVM's ship log while a shipper is
        attached, see repro.replication.ship), else None."""
        return self._db._manager._wal

    def close(self) -> None:
        """Orderly shutdown (mark clean / sync)."""
        if self.wal is not None:
            self.wal.close()

    def crash(self, survivor_fraction: float = 0.0, seed: Optional[int] = None) -> None:
        """Simulate a power failure (unflushed state is lost)."""
        if self.wal is not None:
            # ``survivor_fraction`` plays the same role as for the pmem
            # pool: the share of not-yet-durable (un-fsynced) bytes the
            # hardware happened to write back before power died. The
            # tail is always left torn (garbage past the survivors), the
            # adversarial case recovery must parse through.
            self.wal.crash(
                survivor_fraction=survivor_fraction, seed=seed, torn_tail=True
            )

    # -- DDL hooks -----------------------------------------------------

    @abstractmethod
    def create_table(self, name: str, schema: Schema) -> Table:
        """Create a table on this driver's backend and return it (the
        facade logs and registers it)."""

    def on_table_dropped(self, table: Table) -> None:
        """Drop a table from this driver's storage (called after facade
        deregistration)."""

    def publish(self, table: Table) -> None:
        """Make ``table``'s current content and index map durable in
        this driver's storage: after a new index, and after a merge
        cutover — inside its critical section, right after the
        in-memory swap, so no commit can interleave and the durable
        image moves from the old layout to the new one atomically."""

    def on_merge_complete(self, table: Table) -> None:
        """Post-cutover housekeeping, called outside every lock."""

    def retire(self, *structures) -> None:
        """Give back the memory of partitions and indexes nothing durable
        points to any more, once their last reader is gone. DRAM needs
        no help: the garbage collector is that rule."""

    def sweep_unreachable(self) -> None:
        """Before the first merge after an attach (``_maint_lock``
        held): find what the previous session's free list knew."""

    # -- checkpoint ----------------------------------------------------

    def checkpoint(self) -> int:
        """Write a full snapshot; returns bytes written (LOG only)."""
        raise RuntimeError("checkpoints only apply to LOG mode")

    # -- introspection -------------------------------------------------

    @property
    def pool(self) -> Optional[PMemPool]:
        """The pmem pool, when this driver has one."""
        return None

    def extra_stats(self) -> dict:
        """Driver-specific entries merged into ``Database.stats()``."""
        return {}


class NvmDriver(DurabilityDriver):
    """Hyrise-NV durability: the durable state *is* the runtime state."""

    mode = DurabilityMode.NVM

    def __init__(self, path: str, config: EngineConfig):
        super().__init__(path, config)
        self._pool: Optional[PMemPool] = None
        self._catalog: Optional[NvmCatalog] = None

    @property
    def pool_dir(self) -> str:
        return os.path.join(self.path, "pmem")

    @property
    def ship_log_path(self) -> str:
        return os.path.join(self.path, "ship.log")

    def attach_ship_log(self, wal: Optional[LogWriter]) -> int:
        """Mirror every transaction into ``wal`` (None: stop), close the
        ship log it replaces and return ``last_cid``, all in one hold of
        every ops gate (it waits for operations, not transactions) and
        the commit lock; the caller holds ``_maint_lock``. A snapshot as
        of that ``last_cid`` is where the stream begins."""
        db, old = self._db, self.wal
        with ExitStack() as gates:
            for table in db._tables_by_id.values():
                gates.enter_context(table.ops_gate.exclusive())
            with db._manager._lock:
                db._manager.attach_wal(wal)
                last_cid = db._manager.last_cid
        if old is not None and old is not wal:
            old.close()
        return last_cid

    @property
    def pool(self) -> Optional[PMemPool]:
        return self._pool

    def open(self, db: "Database") -> RecoveryReport:
        self._engine = weakref.ref(db)
        report = RecoveryReport(mode="nvm")
        cfg = self.config
        try:
            with report.span:
                with report.phase("pool_open"):
                    if PMemPool.exists(self.pool_dir):
                        self._pool = PMemPool.open(
                            self.pool_dir, mode=cfg.pmem_mode, latency=cfg.latency
                        )
                        fresh = False
                    else:
                        self._pool = PMemPool.create(
                            self.pool_dir,
                            extent_size=cfg.extent_size,
                            mode=cfg.pmem_mode,
                            latency=cfg.latency,
                        )
                        fresh = True
                self.backend = NvmBackend(self._pool)
                db.backend = self.backend
                with report.phase("catalog_attach"):
                    if fresh:
                        self._catalog = NvmCatalog.format(self._pool, self.backend)
                    else:
                        self._catalog = NvmCatalog.attach(self._pool, self.backend)
                    txn_table = self._txn_table = self._catalog.txn_table()
                    cids = self._catalog.cid_store()
                    tids = self._catalog.tid_allocator()
                    for table, indexes in self._catalog.attach_tables():
                        db._register(table, indexes)
                tables = db._tables_by_id.__getitem__  # no reference to db
                recover_nvm(txn_table, cids, tables, report=report)
                report.tables = len(db._tables_by_id)
                with report.phase("finalize"):
                    self._pool.mark_opened()
                    db._manager = TransactionManager(
                        txn_table, cids, tids, tables, wal=None
                    )
        except Exception:
            # Never leak the mmapped extents of a pool we failed to
            # attach to (corrupt header, missing catalog root, ...).
            if self._pool is not None and not self._pool._closed:
                self._pool.close(clean=False)
            raise
        return report

    def create_table(self, name: str, schema: Schema) -> Table:
        table = Table.create(self._catalog.next_table_id, name, schema, self.backend)
        self._catalog.register_table(table, {})
        return table

    def publish(self, table: Table) -> None:
        # The content descriptor swap is the durable cutover: one atomic
        # pointer store after the new structures persist.
        self._catalog.publish_content(table, self._db._indexes[table.table_id])

    def on_table_dropped(self, table: Table) -> None:
        self._catalog.mark_dropped(table.table_id)

    def retire(self, *structures) -> None:
        # The store that unlinked them is durable. Each structure is
        # the object its readers hold, so its lifetime is the pin: the
        # blocks listed now are freed when it is collected (what a late
        # writer adds to it afterwards waits for the next attach's sweep).
        for structure in structures:
            self._pool.retire(structure, structure.blocks())

    def metadata_blocks(self) -> list[tuple[int, int]]:
        """The blocks of the catalog graph and the transaction table."""
        return [*self._catalog.blocks(), *self._txn_table.blocks()]

    def sweep_unreachable(self) -> None:
        if self._pool.unswept:
            reachable = self.metadata_blocks()
            for table in list(self._db._tables_by_id.values()):
                reachable += self._db._table_blocks(table)
            self._pool.sweep(reachable)

    def close(self) -> None:
        super().close()
        if self._pool is not None:
            self._pool.close(clean=True)

    def crash(self, survivor_fraction: float = 0.0, seed: Optional[int] = None) -> None:
        if self._pool is not None:
            self._pool.crash(survivor_fraction=survivor_fraction, seed=seed)
        super().crash(survivor_fraction, seed)  # the ship log tears like the WAL

    def extra_stats(self) -> dict:
        return {"nvm": {**self._pool.stats.snapshot(), **self._pool.space()}}


class VolatileDriver(DurabilityDriver):
    """Shared DRAM plumbing for the LOG and NONE drivers."""

    def _volatile_manager(
        self,
        db: "Database",
        last_cid: int = 0,
        wal: Optional[LogWriter] = None,
    ) -> TransactionManager:
        return TransactionManager(
            VolatileTxnTable(),
            VolatileCidStore(last_cid),
            VolatileTidAllocator(),
            db._tables_by_id.__getitem__,  # no reference to db
            wal=wal,
        )

    def create_table(self, name: str, schema: Schema) -> Table:
        table_id = self._next_table_id
        self._next_table_id += 1
        return Table.create(table_id, name, schema, self.backend)


class NoneDriver(VolatileDriver):
    """No durability: DRAM structures, data dies with the process."""

    mode = DurabilityMode.NONE

    def open(self, db: "Database") -> RecoveryReport:
        self._engine = weakref.ref(db)
        self.backend = db.backend = VolatileBackend()
        self._next_table_id = 1
        db._manager = self._volatile_manager(db)
        return RecoveryReport(mode="none")


class LogDriver(VolatileDriver):
    """Classic durability: WAL with group commit plus checkpoints."""

    mode = DurabilityMode.LOG

    def __init__(self, path: str, config: EngineConfig):
        super().__init__(path, config)
        # Checkpoint state: the chain directory, the live table_id ->
        # segment-sequence mapping of the current manifest, and the
        # change token each mapped table had when its segment was
        # written (token unchanged => table clean, skip rewriting).
        self._chain = CheckpointChain(chain_dir(path))
        self._segment_map: dict[int, int] = {}
        self._clean_tokens: dict[int, tuple] = {}
        self._last_checkpoint_lsn = 0

    @property
    def log_path(self) -> str:
        return os.path.join(self.path, "wal.log")

    def open(self, db: "Database") -> RecoveryReport:
        self._engine = weakref.ref(db)
        report = RecoveryReport(mode="log")
        with report.span:
            self.backend = db.backend = VolatileBackend()
            replayed = recover_log(
                self._chain.directory, self.log_path, self.backend, report
            )
            for table in replayed.tables.values():
                db._register(table, {})
            self._next_table_id = replayed.next_table_id
            self._seed_checkpoint_state(replayed)
            with report.phase("log_reopen"):
                # A real power failure can leave garbage, a half-written
                # record or a group without its commit record past the
                # last complete group. Drop that torn tail before
                # reopening the log for append: records appended after it
                # would be unreachable to every future replay, or adopted
                # by the dead group.
                self._drop_torn_tail(replayed.lsn)
                wal = LogWriter(
                    self.log_path,
                    self.config.group_commit_size,
                    fsync_delay_s=self.config.wal_fsync_delay_s,
                )
                db._manager = self._volatile_manager(
                    db, last_cid=replayed.last_cid, wal=wal
                )
            with report.phase("index_rebuild"):
                for table_id, columns in replayed.indexes.items():
                    for column in columns:
                        db._build_index(db._tables_by_id[table_id], column)
            report.tables = len(db._tables_by_id)
        return report

    def _seed_checkpoint_state(self, replayed: LogReplayer) -> None:
        """Prime the checkpointer's dirty tracking after recovery.

        A table whose snapshot came from the chain and that no replayed
        record touched is byte-identical to its segment, so it starts
        *clean* (current change token recorded against its segment).
        Tables the replay touched — or that only exist in the log tail —
        are unmapped and will be rewritten by the next checkpoint.
        """
        self._last_checkpoint_lsn = replayed.start_lsn
        self._segment_map = {}
        self._clean_tokens = {}
        state = replayed.chain_state
        if state is None:
            return
        for table_id, seg_seq in state.mapping.items():
            table = replayed.tables.get(table_id)
            if table is None or table_id in replayed.touched:
                continue
            self._segment_map[table_id] = seg_seq
            self._clean_tokens[table_id] = table.change_token()

    def _drop_torn_tail(self, end_lsn: int) -> None:
        """Truncate the log just past its last complete group."""
        if (
            os.path.exists(self.log_path)
            and os.path.getsize(self.log_path) > end_lsn
        ):
            with open(self.log_path, "r+b") as f:
                f.truncate(end_lsn)
                # Make the truncation itself durable: a crash after this
                # point must not resurrect the torn bytes underneath a
                # writer that believes (and tells its reader) the tail
                # ends at ``end_lsn``.
                f.flush()
                os.fsync(f.fileno())

    def on_merge_complete(self, table: Table) -> None:
        # A checkpoint shrinks the replay tail but is not required for
        # correctness (the merge record is).
        self.checkpoint()

    @property
    def log_bytes_since_checkpoint(self) -> int:
        """WAL bytes a restart right now would have to replay."""
        return max(0, self.wal.lsn - self._last_checkpoint_lsn)

    def checkpoint(self) -> int:
        """Publish one link of the chain; returns bytes written.

        Only tables whose change token moved since their last segment
        are re-snapshotted; clean tables carry their existing segment
        references forward through the new manifest. An open transaction
        has logged nothing: its group lands past the link's LSN, whole.
        """
        db = self._db
        # Not beside DDL or a merge cutover: the link lists exactly the
        # tables, and the generations, that its LSN has below it.
        with db._maint_lock:
            t0 = time.perf_counter()
            live = dict(db._tables_by_id)
            # Tokens first: a commit that lands from here on moves its
            # table's token past the recorded one, so the next link
            # rewrites the table instead of carrying forward, under a
            # later LSN, a segment that lacks the commit.
            tokens = {tid: table.change_token() for tid, table in live.items()}
            indexes = {tid: list(db._indexes[tid]) for tid in live}
            # A commit logs its group and stamps its rows under the commit
            # lock: read there, the LSN passes no group left unstamped, and
            # the snapshots drop every stamp past ``last_cid``.
            with db._manager._lock:
                lsn = self.wal.lsn
                last_cid = db._manager.last_cid
            self.wal.sync()
            registry = get_registry()
            dirty = [
                table
                for table_id, table in live.items()
                if table_id not in self._segment_map
                or self._clean_tokens.get(table_id) != tokens[table_id]
            ]
            dirty_ids = {t.table_id for t in dirty}
            carry = {
                table_id: seg
                for table_id, seg in self._segment_map.items()
                if table_id in live and table_id not in dirty_ids
            }
            state, written = self._chain.publish(
                [snapshot_table(t, last_cid) for t in dirty],
                carry,
                last_cid,
                lsn,
                self._next_table_id,
                indexes,
            )
            self._segment_map = state.mapping
            for table_id in dirty_ids:
                self._clean_tokens[table_id] = tokens[table_id]
            for table_id in list(self._clean_tokens):
                if table_id not in state.mapping:
                    del self._clean_tokens[table_id]
            registry.counter("engine_checkpoint_tables_total").inc(len(dirty))
            self._last_checkpoint_lsn = lsn
            registry.counter("engine_checkpoints_total").inc()
            registry.counter("engine_checkpoint_bytes_total").inc(written)
            registry.histogram("engine_checkpoint_seconds").observe(
                time.perf_counter() - t0
            )
            return written

    def extra_stats(self) -> dict:
        wal = self.wal
        return {
            "wal": {
                "records": wal.records_written,
                "syncs": wal.syncs,
                "bytes": wal.bytes_written,
                "commits_acked": wal.commits_acked,
                "commits_durable": wal.commits_durable,
                # Async-commit visibility/durability gap: transactions
                # acknowledged to the client whose commit record has not
                # yet been fsynced (bounded loss window on power failure).
                "ack_durability_gap": wal.commits_acked - wal.commits_durable,
            },
            "checkpoint": {
                "last_lsn": self._last_checkpoint_lsn,
                "log_bytes_since": self.log_bytes_since_checkpoint,
                "chained_tables": len(self._segment_map),
            },
        }


_DRIVERS = {
    DurabilityMode.NVM: NvmDriver,
    DurabilityMode.LOG: LogDriver,
    DurabilityMode.NONE: NoneDriver,
}


def create_driver(path: str, config: EngineConfig) -> DurabilityDriver:
    """Instantiate the driver for ``config.mode``."""
    return _DRIVERS[config.mode](path, config)
