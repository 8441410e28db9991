"""Checkpoint + log-replay recovery for the baseline engine.

Three O(data) phases, timed separately for experiment E2:

1. **checkpoint_load** — compose the newest complete link of the
   ``checkpoints/`` chain into fresh DRAM structures;
2. **log_replay** — re-execute the log tail through :class:`LogReplayer`;
3. **index_rebuild** — performed by the engine afterwards (group-key and
   delta indexes are volatile here).

There is one replayer. :func:`recover_log` feeds it the log tail in
bounded batches and then rolls back what never resolved; a replication
follower's apply loop (``repro.replication.follower``) feeds it whatever
its queue holds, forever. Crash recovery, follower apply and promotion
therefore share the replay code by construction.

**Why per-table queues are enough.** Every operation record touches
exactly one table and table ids are never reused, so applying each
table's records in log order reproduces that table's serial-replay state
no matter how the tables interleave. Commit/abort records may span
tables, but ``apply_operations`` decomposes per table (each op writes
only its own table's MVCC columns), so a commit becomes one *resolve
marker* per touched table. Merge records are single-table, and every
transaction with operations on the merging table resolves in the log
before the merge record (the cutover excluded them), so within its queue
the merge replays against exactly the state the fold saw. Rows of one
table land in its delta in queue order = log order, so physical
placement and dictionary code assignment are those of the original
execution, and rowrefs in later records stay valid.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.obs.metrics import get_registry
from repro.recovery.report import RecoveryReport
from repro.storage.backend import VolatileBackend
from repro.storage.merge import replay_merge
from repro.storage.schema import Schema
from repro.storage.table import Table, pack_rowref, unpack_rowref
from repro.txn.manager import apply_operations, rollback_operations
from repro.txn.txn_table import (
    OP_INSERT,
    OP_INSERT_MANY,
    OP_INVALIDATE,
    pack_range_ref,
)
from repro.wal.checkpoint import ChainState, CheckpointChain, restore_table
from repro.wal.reader import LogScan
from repro.wal.records import (
    TYPE_ABORT,
    TYPE_COMMIT,
    TYPE_CREATE_TABLE,
    TYPE_DROP_TABLE,
    TYPE_INSERT,
    TYPE_INSERT_MANY,
    TYPE_INVALIDATE,
    TYPE_MERGE,
    InsertRecord,
    decode_payload,
    peek_payload,
)

#: Undrained payload bytes at which :meth:`LogReplayer.feed` asks for a
#: :meth:`LogReplayer.drain`. Replay memory is this plus at most one
#: record (``MAX_RECORD_BYTES``), however long the log tail is.
REPLAY_BATCH_BYTES = 4 * 1024 * 1024

#: Queue markers (raw payloads are ``bytes``; markers are tuples).
_COMMIT = 0
_ABORT = 1


def _coalesce_ops(ops: list) -> list:
    """Rewrite runs of row-adjacent OP_INSERTs as one range op.

    ``apply_operations``/``rollback_operations`` already handle
    OP_INSERT_MANY ranges with one chunk-coalesced store per MVCC
    vector; converting contiguous single-row inserts (the coalesced
    batch append produces exactly such runs) turns the per-row commit
    fix-up loop into the same vectorised path. Semantically identical:
    both write ``begin_cid`` and release the tid for the same rows.
    """
    if len(ops) < 2:
        return ops
    out: list = []
    i = 0
    n = len(ops)
    while i < n:
        kind, table_id, ref = ops[i]
        if kind != OP_INSERT:
            out.append(ops[i])
            i += 1
            continue
        is_delta, first = unpack_rowref(ref)
        j = i + 1
        nxt = first + 1
        while j < n:
            k2, _, r2 = ops[j]
            if k2 != OP_INSERT:
                break
            d2, idx2 = unpack_rowref(r2)
            if d2 is not is_delta or idx2 != nxt:
                break
            nxt += 1
            j += 1
        count = j - i
        if count == 1 or not is_delta:
            out.extend(ops[i:j])
        else:
            out.append((OP_INSERT_MANY, table_id, pack_range_ref(first, count)))
        i = j
    return out


class LogReplayer:
    """Streaming REDO of log payloads onto a set of DRAM tables.

    :meth:`feed` routes one CRC-checked payload by its
    :func:`~repro.wal.records.peek_payload` header — operations and
    merges into their table's queue, commit/abort as one resolve marker
    per touched table, DDL applied on the spot — without decoding it.
    :meth:`drain` applies every queue on the calling thread, decoding
    each payload exactly once and coalescing runs of insert records
    into one vectorised dictionary encode + batch append. Per-table
    in-flight operations survive across drains, so any batching of the
    same log yields the same state. :meth:`finish` ends a replay whose
    log simply *stops* (crash recovery, follower promotion) by rolling
    back every transaction that never resolved.

    ``last_cid`` and ``lsn`` advance only in :meth:`drain`, after the
    operations they cover are applied — a reader pinned at ``last_cid``
    never sees a commit half-applied. A merge record folds away rows
    whose deletes committed before it, so :meth:`feed` drains — applies
    and *publishes* every earlier commit — before it queues one: a
    reader that starts once the fold has run is pinned at or past the
    merge's watermark.
    """

    def __init__(
        self, backend: VolatileBackend, checkpoint_dir: Optional[str] = None
    ):
        self.backend = backend
        self.tables: dict[int, Table] = {}
        self.names: dict[str, Table] = {}
        self.last_cid = 0
        self.next_table_id = 1
        #: Offset just past the last *applied* frame; starts at the
        #: loaded checkpoint's LSN (0 without one).
        self.lsn = 0
        self.checkpoint_bytes = 0
        #: Manifest the tables were restored from (None without one).
        self.chain_state: Optional[ChainState] = None
        if checkpoint_dir is not None:
            loaded = CheckpointChain(checkpoint_dir).load()
            if loaded is not None:
                state, snapshots, self.checkpoint_bytes = loaded
                self.chain_state = state
                self.last_cid = state.last_cid
                self.next_table_id = state.next_table_id
                self.lsn = state.lsn
                for snapshot in snapshots:
                    table = restore_table(snapshot, backend)
                    self.tables[table.table_id] = table
                    self.names[table.name] = table
        self.start_lsn = self.lsn
        self.max_tid = 0
        #: Table ids mutated by replayed records — the checkpointer must
        #: treat these as dirty relative to the loaded snapshot.
        self.touched: set[int] = set()
        self.records = 0
        self.commits = 0
        self.merges = 0
        #: Undrained payload bytes (see :data:`REPLAY_BATCH_BYTES`).
        self.pending_bytes = 0
        self._fed_cid = self.last_cid
        self._fed_lsn = self.lsn
        #: table_id -> ordered raw payloads and resolve markers.
        self._queues: dict[int, list] = {}
        #: table_id -> tid -> that table's unresolved ops of the txn.
        self._in_flight: dict[int, dict[int, list]] = {}
        #: tid -> table ids with unresolved operations (insertion-ordered
        #: so resolve markers enqueue deterministically).
        self._txn_tables: dict[int, dict] = {}

    def feed(self, payload: bytes, end_lsn: int) -> bool:
        """Route one payload; ``end_lsn`` is the offset just past it.

        Returns True once the undrained payloads reach
        :data:`REPLAY_BATCH_BYTES`: the feeder must :meth:`drain` before
        feeding more (that is the whole memory bound).
        """
        rtype, tid, table_id, cid = peek_payload(payload)
        if rtype == TYPE_MERGE:
            self.drain()
        self.records += 1
        self._fed_lsn = end_lsn
        if tid > self.max_tid:
            self.max_tid = tid
        if rtype in (TYPE_INSERT, TYPE_INSERT_MANY, TYPE_INVALIDATE):
            self._enqueue(table_id, payload)
            self._txn_tables.setdefault(tid, {})[table_id] = None
        elif rtype == TYPE_COMMIT:
            self.commits += 1
            if cid > self._fed_cid:
                self._fed_cid = cid
            self._resolve(tid, (_COMMIT, tid, cid))
        elif rtype == TYPE_ABORT:
            self._resolve(tid, (_ABORT, tid))
        elif rtype == TYPE_MERGE:
            self._enqueue(table_id, payload)
        elif rtype == TYPE_CREATE_TABLE:
            record = decode_payload(payload)
            table = Table.create(
                table_id,
                record.name,
                Schema.from_bytes(record.schema_blob),
                self.backend,
            )
            self.tables[table_id] = table
            self.names[record.name] = table
            self.next_table_id = max(self.next_table_id, table_id + 1)
            self.touched.add(table_id)
        elif rtype == TYPE_DROP_TABLE:
            # Whatever is still queued for the table dies with it.
            self._queues.pop(table_id, None)
            self._in_flight.pop(table_id, None)
            dropped = self.tables.pop(table_id, None)
            if dropped is not None:
                self.names.pop(dropped.name, None)
            self.touched.add(table_id)
        return self.pending_bytes >= REPLAY_BATCH_BYTES

    def _enqueue(self, table_id: int, payload: bytes) -> None:
        self._queues.setdefault(table_id, []).append(payload)
        self.pending_bytes += len(payload)
        self.touched.add(table_id)

    def _resolve(self, tid: int, marker: tuple) -> None:
        for table_id in self._txn_tables.pop(tid, ()):
            if table_id in self.tables:
                self._queues.setdefault(table_id, []).append(marker)

    def drain(self) -> None:
        """Apply everything fed so far; publish ``last_cid``/``lsn``."""
        queues, self._queues = self._queues, {}
        for table_id, queue in queues.items():
            self._apply_queue(
                self.tables[table_id],
                queue,
                self._in_flight.setdefault(table_id, {}),
            )
        self.pending_bytes = 0
        self.last_cid = self._fed_cid
        self.lsn = self._fed_lsn

    def finish(self) -> int:
        """The log ended for good: roll back every unresolved
        transaction. Returns how many there were."""
        unresolved = list(self._txn_tables)
        for tid in unresolved:
            self._resolve(tid, (_ABORT, tid))
        self.drain()
        return len(unresolved)

    def _apply_queue(self, table: Table, queue: list, in_flight: dict) -> None:
        """Apply one table's queue in order."""
        table_id = table.table_id
        lookup = {table_id: table}.__getitem__
        i = 0
        n = len(queue)
        while i < n:
            entry = queue[i]
            i += 1
            if type(entry) is tuple:
                ops = _coalesce_ops(in_flight.pop(entry[1], []))
                if entry[0] == _COMMIT:
                    apply_operations(lookup, ops, entry[2])
                else:
                    rollback_operations(lookup, ops)
                continue
            rtype = entry[0]
            if rtype == TYPE_INVALIDATE:
                record = decode_payload(entry)
                in_flight.setdefault(record.tid, []).append(
                    (OP_INVALIDATE, table_id, record.ref)
                )
                continue
            if rtype == TYPE_MERGE:
                record = decode_payload(entry)
                replay_merge(
                    table,
                    self.backend,
                    record.watermark,
                    np.asarray(record.main_mask, dtype=bool),
                    np.asarray(record.delta_mask, dtype=bool),
                )
                self.merges += 1
                continue
            # The run of consecutive insert records (single-row or
            # batch) up to the next marker/invalidate/merge entry
            # becomes one vectorised dictionary encode + one batch
            # append, in queue order, so placement and code assignment
            # match the record-at-a-time execution. Each source record
            # still contributes its own in-flight op (tids may differ),
            # tagged row-by-row via the per-row tids array.
            j = i
            while (
                j < n
                and type(queue[j]) is bytes
                and queue[j][0] in (TYPE_INSERT, TYPE_INSERT_MANY)
            ):
                j += 1
            records = [decode_payload(queue[k]) for k in range(i - 1, j)]
            i = j
            if len(records) == 1 and type(records[0]) is InsertRecord:
                record = records[0]
                ref = table.insert_uncommitted(list(record.values), record.tid)
                in_flight.setdefault(record.tid, []).append(
                    (OP_INSERT, table_id, ref)
                )
                continue
            columns: list[list] = [[] for _ in range(len(table.schema))]
            counts = []
            for record in records:
                if type(record) is InsertRecord:
                    for col, value in zip(columns, record.values):
                        col.append(value)
                    counts.append(1)
                else:
                    for col, values in zip(columns, record.columns):
                        col.extend(values)
                    counts.append(record.row_count)
            tids = np.repeat(
                np.fromiter(
                    (r.tid for r in records), np.uint64, count=len(records)
                ),
                np.fromiter(counts, np.int64, count=len(counts)),
            )
            delta = table.delta
            offset = delta.row_count
            delta.insert_rows_encoded(
                delta.encode_columns(columns), 0, tids=tids
            )
            for record, count in zip(records, counts):
                if type(record) is InsertRecord:
                    op = (OP_INSERT, table_id, pack_rowref(True, offset))
                else:
                    op = (
                        OP_INSERT_MANY,
                        table_id,
                        pack_range_ref(offset, count),
                    )
                in_flight.setdefault(record.tid, []).append(op)
                offset += count


#: Throughput buckets for the replay-rate histogram (bytes/second,
#: decades from 100 KiB/s to ~100 GiB/s).
_REPLAY_RATE_BUCKETS = tuple(10.0**e for e in range(5, 12))


def recover_log(
    checkpoint_dir: str,
    log_path: str,
    backend: VolatileBackend,
    report: Optional[RecoveryReport] = None,
) -> LogReplayer:
    """Rebuild database state from the checkpoint chain + log tail.

    Returns the finished replayer: ``tables``, ``last_cid``,
    ``next_table_id``, ``max_tid``, ``touched``, ``start_lsn`` (where
    replay began) and ``lsn`` (just past the last intact frame — the
    offset a torn tail is truncated to). Pass ``report`` to record the
    phases under an enclosing recovery's span tree (the driver does).

    The observed replay rate (log bytes per wall second) feeds the
    ``recovery_replay_bytes_per_second`` histogram, which the
    maintenance daemon uses to estimate restart cost from pending log
    bytes when scheduling checkpoints.
    """
    if report is None:
        report = RecoveryReport(mode="log")
    with report.phase("checkpoint_load"):
        replayer = LogReplayer(backend, checkpoint_dir)
        report.checkpoint_bytes = replayer.checkpoint_bytes

    replay_started = time.perf_counter()
    with report.phase("log_replay"):
        for payload, end_lsn in LogScan(
            log_path, replayer.start_lsn, decode=False
        ):
            if replayer.feed(payload, end_lsn):
                replayer.drain()
        # Transactions with no commit/abort record lost the race with
        # the crash.
        report.txns_rolled_back += replayer.finish()
    replay_seconds = time.perf_counter() - replay_started
    replayed_bytes = replayer.lsn - replayer.start_lsn
    if replayed_bytes > 0 and replay_seconds > 0:
        get_registry().histogram(
            "recovery_replay_bytes_per_second", buckets=_REPLAY_RATE_BUCKETS
        ).observe(replayed_bytes / replay_seconds)

    report.log_records_replayed += replayer.records
    report.merges_replayed += replayer.merges
    report.tables = len(replayer.tables)
    report.rows_recovered = sum(t.row_count for t in replayer.tables.values())
    return replayer
