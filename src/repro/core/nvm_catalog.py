"""Persistent catalog: the NVM layout that makes restarts instant.

Everything the engine needs after a restart is reachable from the pool's
root pointer in a constant number of hops per table::

    root block
      +0   last_cid       (persisted commit horizon)
      +8   tid_reserve    (upper bound on handed-out tids)
      +16  txn_table      -> PersistentTxnTable
      +24  tables_vec     -> PVector of table-entry offsets
      +32  next_table_id

    table entry (immutable except content_ptr and flags)
      +0   table_id  +8 name blob  +16 schema blob
      +24  content_ptr   (ATOMIC swap point for merges)
      +32  flags          bit1 = dropped; bit0 reserved

    content descriptor (immutable once published)
      +0   generation  +8 main_desc  +16 delta_desc  +24 index_count
      +32  index entries, 4 u64 each:
           [column_idx, gk_offsets_vec, gk_positions_vec, reserved]

    main descriptor:  row_count, ncols, begin/end/tid vecs,
                      then per column [dict_values_vec, words_vec, bits]
    delta descriptor: ncols, begin/end/tid vecs,
                      then per column [codes_vec, dict_values_vec, reserved]

Attaching a table reads a handful of u64s — O(tables), never O(rows) —
which is precisely the paper's instant-restart property. The delta
index and the delta dictionary's lookup are volatile, rebuilt from the
delta on first use. *Reserved* words and bits are written 0 and never
read: pools written when those structures could be persistent (the
word held their offset, bit 0 flagged it) still attach, and the map
such a word pointed to is unreachable, so the first merge's sweep
frees it.

Descriptors are read only by an attach, so the three a content swap
(or a drop) supersedes go back to the pool as soon as the store that
unlinked them is durable.
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from repro.index.groupkey import GroupKeyIndex
from repro.index.table_index import TableIndex
from repro.nvm.pool import PMemPool
from repro.nvm.pvector import PVector
from repro.storage.backend import NvmBackend
from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import SortedDictionary, UnsortedDictionary
from repro.storage.main import MainColumn, MainPartition
from repro.storage.mvcc import MvccColumns
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.txn.txn_table import PersistentTxnTable

_R_LAST_CID = 0
_R_TID_RESERVE = 8
_R_TXN_TABLE = 16
_R_TABLES = 24
_R_NEXT_TABLE_ID = 32
_ROOT_BYTES = 64

_T_ID = 0
_T_NAME = 8
_T_SCHEMA = 16
_T_CONTENT = 24
_T_FLAGS = 32
_ENTRY_BYTES = 64

_FLAG_DROPPED = 2

_TID_RESERVATION = 1024


class PersistentCidStore:
    """last_cid persisted in the root block (8-byte atomic advance)."""

    def __init__(self, pool: PMemPool, root: int):
        self._pool = pool
        self._offset = root + _R_LAST_CID
        self._last = pool.read_u64(self._offset)
        self._lock = threading.Lock()

    @property
    def last_cid(self) -> int:
        return self._last

    def advance(self, cid: int) -> None:
        # Locked check-then-write: two committers racing here could
        # otherwise persist a lower cid over a higher one.
        with self._lock:
            if cid > self._last:
                self._pool.write_u64(self._offset, cid)
                self._pool.persist(self._offset, 8)
                self._last = cid


class PersistentTidAllocator:
    """Batched tid reservation: one NVM write per 1024 transactions.

    After a crash the allocator restarts at the persisted reservation
    upper bound, so no tid is ever handed out twice — stale tids left in
    rows by crashed transactions can never be confused with a live one.
    """

    def __init__(self, pool: PMemPool, root: int):
        self._pool = pool
        self._offset = root + _R_TID_RESERVE
        self._lock = threading.Lock()
        reserve = pool.read_u64(self._offset)
        self._next = max(reserve, 1)
        self._limit = self._next
        self._extend_reservation()

    def _extend_reservation(self) -> None:
        self._limit = self._next + _TID_RESERVATION
        self._pool.write_u64(self._offset, self._limit)
        self._pool.persist(self._offset, 8)

    def next(self) -> int:
        # Atomic under concurrent begins: the read-increment and the
        # occasional reservation extension must not interleave.
        with self._lock:
            if self._next >= self._limit:
                self._extend_reservation()
            tid = self._next
            self._next += 1
            return tid


class NvmCatalog:
    """Reads and writes the persistent metadata graph."""

    def __init__(self, pool: PMemPool, backend: NvmBackend, root: int):
        self._pool = pool
        self._backend = backend
        self.root = root
        self._tables_vec = PVector.attach(pool, pool.read_u64(root + _R_TABLES))
        self._entries: dict[int, int] = {}  # table_id -> entry offset

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    @classmethod
    def format(
        cls, pool: PMemPool, backend: NvmBackend, txn_slots: int
    ) -> "NvmCatalog":
        """Create the root block on a fresh pool and publish it."""
        root = pool.allocate(_ROOT_BYTES)
        pool.write(root, b"\x00" * _ROOT_BYTES)
        pool.persist(root, _ROOT_BYTES)
        txn_table = PersistentTxnTable.create(pool, txn_slots)
        tables_vec = PVector.create(pool, np.uint64, chunk_capacity=64)
        pool.write_u64(root + _R_TXN_TABLE, txn_table.offset)
        pool.write_u64(root + _R_TABLES, tables_vec.offset)
        pool.write_u64(root + _R_NEXT_TABLE_ID, 1)
        pool.persist(root, _ROOT_BYTES)
        pool.set_root(root)  # atomic publish of the whole catalog
        return cls(pool, backend, root)

    @classmethod
    def attach(cls, pool: PMemPool, backend: NvmBackend) -> "NvmCatalog":
        """Open the catalog of an existing pool."""
        root = pool.root_offset
        if root == 0:
            raise ValueError("pool has no catalog root")
        return cls(pool, backend, root)

    def txn_table(self) -> PersistentTxnTable:
        return PersistentTxnTable.attach(
            self._pool, self._pool.read_u64(self.root + _R_TXN_TABLE)
        )

    def cid_store(self) -> PersistentCidStore:
        return PersistentCidStore(self._pool, self.root)

    def tid_allocator(self) -> PersistentTidAllocator:
        return PersistentTidAllocator(self._pool, self.root)

    @property
    def next_table_id(self) -> int:
        return self._pool.read_u64(self.root + _R_NEXT_TABLE_ID)

    # ------------------------------------------------------------------
    # Descriptor writers
    # ------------------------------------------------------------------

    def _write_main_descriptor(self, main: MainPartition) -> int:
        pool = self._pool
        ncols = len(main.columns)
        desc = pool.allocate(40 + 24 * ncols)
        pool.write_u64(desc, main.row_count)
        pool.write_u64(desc + 8, ncols)
        pool.write_u64(desc + 16, main.mvcc.begin.offset)
        pool.write_u64(desc + 24, main.mvcc.end.offset)
        pool.write_u64(desc + 32, main.mvcc.tid.offset)
        for i, col in enumerate(main.columns):
            base = desc + 40 + 24 * i
            pool.write_u64(base, col.dictionary.values.offset)
            pool.write_u64(base + 8, col.words.offset)
            pool.write_u64(base + 16, col.bits)
        pool.persist(desc, 40 + 24 * ncols)
        return desc

    def _write_delta_descriptor(self, delta: DeltaPartition) -> int:
        pool = self._pool
        ncols = len(delta.code_vectors)
        desc = pool.allocate(32 + 24 * ncols)
        pool.write_u64(desc, ncols)
        pool.write_u64(desc + 8, delta.mvcc.begin.offset)
        pool.write_u64(desc + 16, delta.mvcc.end.offset)
        pool.write_u64(desc + 24, delta.mvcc.tid.offset)
        for i in range(ncols):
            base = desc + 32 + 24 * i
            pool.write_u64(base, delta.code_vectors[i].offset)
            pool.write_u64(base + 8, delta.dictionaries[i].values.offset)
            pool.write_u64(base + 16, 0)  # reserved
        pool.persist(desc, 32 + 24 * ncols)
        return desc

    def _write_content_descriptor(
        self,
        generation: int,
        main: MainPartition,
        delta: DeltaPartition,
        schema: Schema,
        indexes: dict[str, TableIndex],
    ) -> int:
        pool = self._pool
        main_desc = self._write_main_descriptor(main)
        delta_desc = self._write_delta_descriptor(delta)
        n_idx = len(indexes)
        desc = pool.allocate(32 + 32 * n_idx)
        pool.write_u64(desc, generation)
        pool.write_u64(desc + 8, main_desc)
        pool.write_u64(desc + 16, delta_desc)
        pool.write_u64(desc + 24, n_idx)
        for i, (column, index) in enumerate(sorted(indexes.items())):
            base = desc + 32 + 32 * i
            pool.write_u64(base, schema.column_index(column))
            pool.write_u64(base + 8, index.group_key.offsets_vector.offset)
            pool.write_u64(base + 16, index.group_key.positions_vector.offset)
            pool.write_u64(base + 24, 0)  # reserved
        pool.persist(desc, 32 + 32 * n_idx)
        return desc

    # ------------------------------------------------------------------
    # Table lifecycle
    # ------------------------------------------------------------------

    def register_table(self, table: Table, indexes: dict[str, TableIndex]) -> None:
        """Persist a freshly created table and publish it in the catalog."""
        pool = self._pool
        entry = pool.allocate(_ENTRY_BYTES)
        pool.write_u64(entry + _T_ID, table.table_id)
        pool.write_u64(entry + _T_NAME, self._backend.put_str(table.name))
        pool.write_u64(entry + _T_SCHEMA, self._backend.put_blob(table.schema.to_bytes()))
        content = self._write_content_descriptor(
            table.generation, table.main, table.delta, table.schema, indexes
        )
        pool.write_u64(entry + _T_CONTENT, content)
        pool.write_u64(entry + _T_FLAGS, 0)
        pool.persist(entry, _ENTRY_BYTES)
        # Bump next_table_id before the entry publishes so ids are unique
        # even if we crash in between (the id is merely skipped).
        next_id = max(self.next_table_id, table.table_id + 1)
        pool.write_u64(self.root + _R_NEXT_TABLE_ID, next_id)
        pool.persist(self.root + _R_NEXT_TABLE_ID, 8)
        self._tables_vec.append(entry)  # atomic publish
        self._entries[table.table_id] = entry

    def publish_content(
        self, table: Table, indexes: dict[str, TableIndex]
    ) -> None:
        """Swap a table's content pointer to its current in-memory state.

        Used by merges (new generation) and index creation (same
        generation, new index list). The single 8-byte store makes the
        switch atomic; a crash before it leaves the old content intact.
        """
        entry = self._entries[table.table_id]
        superseded = list(self._descriptor_blocks(entry))
        content = self._write_content_descriptor(
            table.generation, table.main, table.delta, table.schema, indexes
        )
        self._pool.write_u64(entry + _T_CONTENT, content)  # atomic swap
        self._pool.persist(entry + _T_CONTENT, 8)
        for block in superseded:
            self._pool.free(*block)

    def mark_dropped(self, table_id: int) -> None:
        """Durably tombstone a table (one atomic flags store).

        The entry stays in the tables vector (it is append-only); attach
        skips tombstoned entries, so nothing reads the table's
        descriptors again and they are freed here.
        """
        entry = self._entries[table_id]
        descriptors = list(self._descriptor_blocks(entry))
        flags = self._pool.read_u64(entry + _T_FLAGS)
        self._pool.write_u64(entry + _T_FLAGS, flags | _FLAG_DROPPED)
        self._pool.persist(entry + _T_FLAGS, 8)
        for block in descriptors:
            self._pool.free(*block)

    # ------------------------------------------------------------------
    # Space
    # ------------------------------------------------------------------

    def _descriptor_blocks(self, entry: int) -> Iterator[tuple[int, int]]:
        """The content, main and delta descriptors a live entry points to."""
        pool = self._pool
        content = pool.read_u64(entry + _T_CONTENT)
        main_desc = pool.read_u64(content + 8)
        delta_desc = pool.read_u64(content + 16)
        yield content, 32 + 32 * pool.read_u64(content + 24)
        yield main_desc, 40 + 24 * pool.read_u64(main_desc + 8)
        yield delta_desc, 32 + 24 * pool.read_u64(delta_desc)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Every block of the metadata graph itself, as ``(offset,
        nbytes)``: the root, the tables vector, and per entry the entry,
        its name and schema blobs and — unless dropped — its descriptors.
        Table content and the transaction table list their own."""
        pool, backend = self._pool, self._backend
        yield self.root, _ROOT_BYTES
        yield from self._tables_vec.blocks()
        for entry in list(self._entries.values()):
            yield entry, _ENTRY_BYTES
            yield backend.blob_block(pool.read_u64(entry + _T_NAME))
            yield backend.blob_block(pool.read_u64(entry + _T_SCHEMA))
            if not pool.read_u64(entry + _T_FLAGS) & _FLAG_DROPPED:
                yield from self._descriptor_blocks(entry)

    # ------------------------------------------------------------------
    # Attach (restart path)
    # ------------------------------------------------------------------

    def _attach_main(self, schema: Schema, desc: int) -> MainPartition:
        pool = self._pool
        backend = self._backend
        row_count = pool.read_u64(desc)
        ncols = pool.read_u64(desc + 8)
        mvcc = MvccColumns(
            backend.attach_vector(pool.read_u64(desc + 16)),
            backend.attach_vector(pool.read_u64(desc + 24)),
            backend.attach_vector(pool.read_u64(desc + 32)),
        )
        columns = []
        for i, col_def in enumerate(schema):
            base = desc + 40 + 24 * i
            dictionary = SortedDictionary.attach(
                col_def.dtype, backend, pool.read_u64(base)
            )
            words = backend.attach_vector(pool.read_u64(base + 8))
            bits = pool.read_u64(base + 16)
            columns.append(MainColumn(dictionary, words, bits, row_count))
        if ncols != len(schema):
            raise ValueError("main descriptor column count mismatch")
        return MainPartition(schema, columns, mvcc, row_count)

    def _attach_delta(self, schema: Schema, desc: int) -> DeltaPartition:
        pool = self._pool
        backend = self._backend
        mvcc = MvccColumns(
            backend.attach_vector(pool.read_u64(desc + 8)),
            backend.attach_vector(pool.read_u64(desc + 16)),
            backend.attach_vector(pool.read_u64(desc + 24)),
        )
        dictionaries = []
        code_vectors = []
        for i, col_def in enumerate(schema):
            base = desc + 32 + 24 * i
            code_vectors.append(backend.attach_vector(pool.read_u64(base)))
            dictionaries.append(
                UnsortedDictionary.attach(
                    col_def.dtype, backend, pool.read_u64(base + 8)
                )
            )
        return DeltaPartition(schema, backend, dictionaries, code_vectors, mvcc)

    def _attach_indexes(
        self, schema: Schema, content: int, main: MainPartition, delta: DeltaPartition
    ) -> dict[str, TableIndex]:
        pool = self._pool
        backend = self._backend
        out: dict[str, TableIndex] = {}
        n_idx = pool.read_u64(content + 24)
        for i in range(n_idx):
            base = content + 32 + 32 * i
            col_idx = pool.read_u64(base)
            column = schema.columns[col_idx].name
            group_key = GroupKeyIndex.attach(
                backend, pool.read_u64(base + 8), pool.read_u64(base + 16)
            )
            out[column] = TableIndex(column, group_key, main, delta)
        return out

    def attach_tables(self) -> list[tuple[Table, dict[str, TableIndex]]]:
        """Reconstruct every table from the catalog.

        Returns (table, indexes) pairs. Cost is a fixed number of
        pointer reads per table and column — independent of row counts.
        """
        pool = self._pool
        out = []
        for i in range(len(self._tables_vec)):
            entry = int(self._tables_vec.get(i))
            table_id = pool.read_u64(entry + _T_ID)
            if pool.read_u64(entry + _T_FLAGS) & _FLAG_DROPPED:
                self._entries[table_id] = entry
                continue
            name = self._backend.get_str(pool.read_u64(entry + _T_NAME))
            schema = Schema.from_bytes(
                self._backend.get_blob(pool.read_u64(entry + _T_SCHEMA))
            )
            content = pool.read_u64(entry + _T_CONTENT)
            generation = pool.read_u64(content)
            main = self._attach_main(schema, pool.read_u64(content + 8))
            delta = self._attach_delta(schema, pool.read_u64(content + 16))
            table = Table(
                table_id, name, schema, self._backend, main, delta, generation
            )
            out.append((table, self._attach_indexes(schema, content, main, delta)))
            self._entries[table_id] = entry
        return out
