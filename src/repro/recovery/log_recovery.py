"""Checkpoint + log-replay recovery for the baseline engine.

Three O(data) phases, timed separately for experiment E2:

1. **checkpoint_load** — compose the newest complete link of the
   ``checkpoints/`` chain into fresh DRAM structures;
2. **log_replay** — re-execute the log tail through :class:`LogReplayer`;
3. **index_rebuild** — performed by the engine afterwards (group-key and
   delta indexes are volatile here), for the columns
   :attr:`LogReplayer.indexes` declares: the manifest's declarations
   plus the log tail's ``CREATE_INDEX`` records.

There is one replayer. :func:`recover_log` feeds it the log tail in
bounded batches; a replication follower's apply loop
(``repro.replication.follower``) feeds it whatever its queue holds,
forever. Crash recovery, follower apply and promotion therefore share
the replay code by construction.

Replay is REDO-only, and two rules of the log make it so:

* **Groups are atomic in the file.** A transaction reaches the log at
  commit, as its operation records followed by its commit record with
  nothing in between. A group the log ends inside never committed and
  is never queued — there is nothing to roll back.
* **Records carry position and commit id, so they commute between
  merges.** An insert names the delta rows it occupies, an invalidate
  the row it ends, the commit record the cid that stamps both. Applying
  a table's queued records in any order or batching yields the same
  rows at the same places; only a merge record, which renumbers them,
  is a barrier — :meth:`LogReplayer.feed` drains before replaying one.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.obs.metrics import get_registry
from repro.recovery.report import RecoveryReport
from repro.storage.backend import VolatileBackend
from repro.storage.merge import replay_merge
from repro.storage.mvcc import INFINITY_CID
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.wal.checkpoint import ChainState, CheckpointChain, restore_table
from repro.wal.reader import LogScan
from repro.wal.records import (
    TYPE_COMMIT,
    TYPE_CREATE_INDEX,
    TYPE_CREATE_TABLE,
    TYPE_DROP_TABLE,
    TYPE_INSERT_MANY,
    TYPE_INVALIDATE,
    TYPE_MERGE,
    decode_payload,
    peek_payload,
)

#: Undrained payload bytes at which :meth:`LogReplayer.feed` asks for a
#: :meth:`LogReplayer.drain`. Replay memory is this plus the frames of
#: at most one transaction (its open group), however long the log tail.
REPLAY_BATCH_BYTES = 4 * 1024 * 1024


class LogReplayer:
    """Streaming REDO of log payloads onto a set of DRAM tables.

    :meth:`feed` routes one CRC-checked payload by its
    :func:`~repro.wal.records.peek_payload` header without decoding it:
    operation records wait in the open group and move, stamped with the
    cid, into their table's queue at the commit record; DDL and merges
    are applied on the spot. :meth:`drain` applies every queue on the
    calling thread, decoding each payload exactly once and coalescing
    position-adjacent insert records into one vectorised dictionary
    encode + one positional load.

    ``last_cid`` and ``lsn`` advance only in :meth:`drain`, after the
    operations they cover are applied — a reader pinned at ``last_cid``
    never sees a commit half-applied — and ``lsn`` only ever names a
    group boundary, which is where a torn tail is truncated. A merge
    record folds away rows whose deletes committed before it, so
    :meth:`feed` drains — applies and *publishes* every earlier commit —
    before it replays one: a reader that starts once the fold has run is
    pinned at or past the merge's watermark.
    """

    def __init__(
        self, backend: VolatileBackend, checkpoint_dir: Optional[str] = None
    ):
        self.backend = backend
        self.tables: dict[int, Table] = {}
        self.names: dict[str, Table] = {}
        self.last_cid = 0
        self.next_table_id = 1
        #: Offset just past the last *applied* group; starts at the
        #: loaded checkpoint's LSN (0 without one).
        self.lsn = 0
        self.checkpoint_bytes = 0
        #: Manifest the tables were restored from (None without one).
        self.chain_state: Optional[ChainState] = None
        #: table_id -> the index columns declared on it, in order.
        self.indexes: dict[int, list[str]] = {}
        if checkpoint_dir is not None:
            loaded = CheckpointChain(checkpoint_dir).load()
            if loaded is not None:
                state, snapshots, self.checkpoint_bytes = loaded
                self.chain_state = state
                self.last_cid = state.last_cid
                self.next_table_id = state.next_table_id
                self.lsn = state.lsn
                self.indexes = {t: list(c) for t, c in state.indexes.items()}
                for snapshot in snapshots:
                    table = restore_table(snapshot, backend)
                    self.tables[table.table_id] = table
                    self.names[table.name] = table
        self.start_lsn = self.lsn
        #: Table ids named by replayed records — the checkpointer must
        #: treat these as dirty relative to the loaded snapshot.
        self.touched: set[int] = set()
        self.records = 0
        self.commits = 0
        self.merges = 0
        #: Undrained payload bytes (see :data:`REPLAY_BATCH_BYTES`).
        self.pending_bytes = 0
        self._fed_cid = self.last_cid
        self._fed_lsn = self.lsn
        #: ``(table_id, payload)`` of the group no commit has closed yet.
        self._group: list[tuple[int, bytes]] = []
        #: table_id -> ``(cid, payload)`` of committed operation records.
        self._queues: dict[int, list[tuple[int, bytes]]] = {}

    def feed(self, payload: bytes, end_lsn: int) -> bool:
        """Route one payload; ``end_lsn`` is the offset just past it.

        Returns True once the undrained payloads reach
        :data:`REPLAY_BATCH_BYTES`: the feeder must :meth:`drain` before
        feeding more (that is the whole memory bound).
        """
        rtype, table_id, cid = peek_payload(payload)
        self.records += 1
        if rtype != TYPE_COMMIT:
            self.touched.add(table_id)
        if rtype in (TYPE_INSERT_MANY, TYPE_INVALIDATE):
            self._group.append((table_id, payload))
            return False  # mid-group: ``end_lsn`` is not a boundary
        if rtype == TYPE_COMMIT:
            self.commits += 1
            for owner, held in self._group:
                self._queues.setdefault(owner, []).append((cid, held))
                self.pending_bytes += len(held)
            self._group = []
            if cid > self._fed_cid:
                self._fed_cid = cid
        elif rtype == TYPE_MERGE:
            self.drain()
            record = decode_payload(payload)
            replay_merge(
                self.tables[table_id],
                self.backend,
                record.watermark,
                np.asarray(record.main_mask, dtype=bool),
                np.asarray(record.delta_mask, dtype=bool),
            )
            self.merges += 1
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
        elif rtype == TYPE_CREATE_INDEX:
            column = decode_payload(payload).column
            self.indexes.setdefault(table_id, []).append(column)
        elif rtype == TYPE_DROP_TABLE:
            # Whatever is still queued for the table dies with it.
            self._queues.pop(table_id, None)
            self.indexes.pop(table_id, None)
            dropped = self.tables.pop(table_id, None)
            if dropped is not None:
                self.names.pop(dropped.name, None)
        self._fed_lsn = end_lsn
        return self.pending_bytes >= REPLAY_BATCH_BYTES

    def drain(self) -> None:
        """Apply everything committed so far; publish ``last_cid``/``lsn``."""
        queues, self._queues = self._queues, {}
        for table_id, queue in queues.items():
            self._apply_queue(self.tables[table_id], queue)
        self.pending_bytes = 0
        self.last_cid = self._fed_cid
        self.lsn = self._fed_lsn

    def _apply_queue(self, table: Table, queue: list) -> None:
        """Apply one table's committed records: inserts, then the
        invalidates (which may end rows the same batch inserted)."""
        inserts = []
        invalidates = []
        for cid, payload in queue:
            record = decode_payload(payload)
            if payload[0] == TYPE_INVALIDATE:
                invalidates.append((record.ref, cid))
            else:
                inserts.append((cid, record))
        delta = table.delta
        i = 0
        while i < len(inserts):
            # The run of records that sit back to back in the delta
            # becomes one vectorised dictionary encode + one load.
            first = after = inserts[i][1].first_row
            columns: list[list] = [[] for _ in range(len(table.schema))]
            cids = []
            counts = []
            while i < len(inserts) and inserts[i][1].first_row == after:
                cid, record = inserts[i]
                for col, values in zip(columns, record.columns):
                    col.extend(values)
                cids.append(cid)
                counts.append(record.row_count)
                after += record.row_count
                i += 1
            delta.load_encoded(
                delta.encode_columns(columns),
                np.repeat(np.asarray(cids, np.uint64), counts),
                np.full(after - first, INFINITY_CID, dtype=np.uint64),
                first=first,
            )
        for ref, cid in invalidates:
            mvcc, index = table.mvcc_for(ref)
            mvcc.set_end(index, cid)


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

    Returns the drained replayer: ``tables``, ``indexes``, ``last_cid``,
    ``next_table_id``, ``touched``, ``start_lsn`` (where replay began)
    and ``lsn`` (just past the last complete group — the offset a torn
    tail is truncated to). Pass ``report`` to record the phases under an
    enclosing recovery's span tree (the driver does).

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
        replayer.drain()
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
