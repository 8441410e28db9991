"""Log writer with cross-transaction group commit.

Implements the :class:`~repro.txn.manager.WalHook` protocol. The log is
REDO-only: a transaction's operation records are *staged* in memory as
encoded frames, :meth:`LogWriter.append_commit` writes them and the
commit record under one append-lock hold — a group is contiguous in the
file by construction — and :meth:`LogWriter.log_abort` forgets them, so
the file holds committed work only, in commit order. Commit records
trigger an fsync according to the group-commit policy:

* ``group_size == 1`` — synchronous commit: every transaction waits for
  its commit record to be durable before it is acknowledged. Under
  concurrency one **leader** fsyncs on behalf of every commit that
  reached the file by then; the followers block on the commit barrier
  and are released together (single-threaded this degenerates to one
  fsync per transaction, the strongest, slowest baseline);
* ``group_size == N`` — at most one fsync per N commits, amortising the
  disk round-trip (the paper-era standard);
* ``group_size == 0`` — asynchronous commit: transactions are
  acknowledged as soon as the record is in the file; fsync happens only
  on checkpoint/close. The acked-but-not-durable window is surfaced as
  ``wal_commits_acked_total`` vs ``wal_commits_durable_total``.

Concurrent committers use :meth:`append_commit` (write the group,
returns its end LSN) followed by :meth:`commit_barrier` (wait until the
policy says the commit is acknowledgeable).
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.nvm.latency import persistence_event
from repro.obs import generation, get_registry
from repro.storage.types import Value
from repro.wal.records import (
    MAX_RECORD_BYTES,
    CommitRecord,
    CreateIndexRecord,
    CreateTableRecord,
    DropTableRecord,
    InsertManyRecord,
    InsertRecord,
    InvalidateRecord,
    LogRecord,
    MergeRecord,
    RecordTooLarge,
    encode_record,
)


class LogWriter:
    """Appends framed records to the log file."""

    def __init__(
        self,
        path: str,
        group_size: int = 1,
        fsync_delay_s: float = 0.0,
        max_record_bytes: int = MAX_RECORD_BYTES,
    ):
        if group_size < 0:
            raise ValueError("group_size must be >= 0")
        self._path = path
        self._file = open(path, "ab")
        self._group_size = group_size
        self._max_record_bytes = max_record_bytes
        # Modelled device latency added to every fsync. Implemented
        # with a GIL-releasing sleep so concurrent committers genuinely
        # overlap their barrier waits (E12 sweeps this).
        self._fsync_delay_s = fsync_delay_s
        self._pending_commits = 0
        self.records_written = 0
        self.syncs = 0
        self.bytes_written = os.path.getsize(path)
        if self.bytes_written:
            # Reopening an existing tail: nothing proves those bytes ever
            # reached stable storage — crash recovery truncates without
            # fsyncing, and a promoted follower's log was written by an
            # apply loop that never synced. ``_synced_lsn`` below claims
            # the whole tail is durable (so a commit at or before it
            # skips its fsync in ``_sync_to``); make that claim true
            # before the first commit can rely on it.
            os.fsync(self._file.fileno())
        self._synced_lsn = self.bytes_written
        # Replication hook (see repro.replication.WalShipper): when set,
        # ``commit_barrier`` additionally waits for follower apply-acks
        # per the shipper's acknowledgement mode.
        self._replication = None
        # Group-commit coordinator state. ``_append_lock`` serialises
        # record appends (file writes + byte accounting); ``_sync_cond``
        # guards the leader election: at most one thread fsyncs at a
        # time, followers wait on the condition until the durable
        # frontier covers their commit LSN.
        self._append_lock = threading.Lock()
        self._sync_cond = threading.Condition()
        self._sync_in_progress = False
        # End-LSNs of commit records not yet durable, in append order —
        # drained as the frontier advances to count group sizes.
        self._pending_commit_lsns: deque[int] = deque()
        # tid -> encoded frames of a transaction that has not ended (the
        # tid is never serialised). Unlatched: a transaction runs on one
        # thread at a time, and ``setdefault``/``pop`` are atomic.
        self._staged: dict[int, list[bytes]] = {}
        self.commits_acked = 0
        self.commits_durable = 0
        self._instruments_generation = -1
        self._refresh_instruments()

    def _refresh_instruments(self) -> None:
        """(Re)bind cached metric handles to the current registry."""
        registry = get_registry()
        self._records_counter = registry.counter("wal_records_total")
        self._bytes_counter = registry.counter("wal_bytes_written_total")
        self._fsync_histogram = registry.histogram("wal_fsync_seconds")
        self._acked_counter = registry.counter("wal_commits_acked_total")
        self._durable_counter = registry.counter("wal_commits_durable_total")
        self._group_size_histogram = registry.histogram(
            "wal_group_commit_size"
        )
        self._fsync_wait_histogram = registry.histogram(
            "wal_fsync_wait_seconds"
        )
        self._instruments_generation = generation()

    @property
    def path(self) -> str:
        return self._path

    @property
    def lsn(self) -> int:
        """Current end-of-log byte offset (all records written so far)."""
        return self.bytes_written

    @property
    def durable_lsn(self) -> int:
        """Byte offset up to which the log is known fsynced."""
        return self._synced_lsn

    def set_replication(self, hook) -> None:
        """Attach (or detach with ``None``) a replication coordinator.

        The hook's ``wait_commit(lsn)`` is called from
        :meth:`commit_barrier` after the local durability policy is
        satisfied, so semi-sync/quorum modes can hold the commit
        acknowledgement for follower apply-acks.
        """
        self._replication = hook

    def flush_to_os(self) -> int:
        """Flush userspace buffers to the OS (no fsync); returns the
        flushed frontier. A log tailer on the same host sees every byte
        up to this offset."""
        with self._append_lock:
            self._file.flush()
            return self.bytes_written

    def _write(self, record: LogRecord) -> int:
        """Append one framed record; returns its end-LSN."""
        return self._append([encode_record(record, self._max_record_bytes)])

    def _append(self, frames: list[bytes], commit: bool = False) -> int:
        """Write ``frames`` back to back under one lock hold, so nothing
        else — a merge record, DDL, another group — lands between them;
        returns the end-LSN of the last."""
        nbytes = sum(map(len, frames))
        with self._append_lock:
            self._file.writelines(frames)
            self.bytes_written += nbytes
            end_lsn = self.bytes_written
            self.records_written += len(frames)
            if commit:
                self._pending_commits += 1
                self._pending_commit_lsns.append(end_lsn)
        if self._instruments_generation != generation():
            self._refresh_instruments()
        self._records_counter.inc(len(frames))
        self._bytes_counter.inc(nbytes)
        return end_lsn

    def sync(self) -> None:
        """Force everything written so far to stable storage."""
        self._sync_to(self.bytes_written)

    def _sync_to(self, target: int) -> None:
        """Make every byte up to ``target`` durable (leader/follower).

        The first thread to arrive while no fsync is running becomes
        the **leader**: it flushes and fsyncs once, covering every
        record appended by then — including followers that enqueued
        after it was elected. Followers block on the condition variable
        until the durable frontier reaches their target. A leader that
        dies (the crash injector raises out of the persistence event)
        releases the barrier from its ``finally`` so each follower
        re-elects itself and hits the same failure instead of hanging.
        """
        with self._sync_cond:
            while True:
                if self._synced_lsn >= target:
                    return
                if not self._sync_in_progress:
                    self._sync_in_progress = True
                    break
                self._sync_cond.wait()
        frontier = self._synced_lsn
        try:
            # Crash-point boundary: a simulated power failure raised here
            # means nothing past the previous sync became durable.
            persistence_event("wal_fsync")
            t0 = time.perf_counter()
            with self._append_lock:
                self._file.flush()
                frontier = self.bytes_written
            os.fsync(self._file.fileno())
            if self._fsync_delay_s:
                # Modelled device latency; sleep releases the GIL so
                # other committers keep appending meanwhile.
                time.sleep(self._fsync_delay_s)
            if self._instruments_generation != generation():
                self._refresh_instruments()
            self._fsync_histogram.observe(time.perf_counter() - t0)
            self.syncs += 1
            group = 0
            with self._append_lock:
                self._pending_commits = 0
                pending = self._pending_commit_lsns
                while pending and pending[0] <= frontier:
                    pending.popleft()
                    group += 1
            if group:
                self.commits_durable += group
                self._durable_counter.inc(group)
                self._group_size_histogram.observe(group)
        finally:
            with self._sync_cond:
                self._synced_lsn = max(self._synced_lsn, frontier)
                self._sync_in_progress = False
                self._sync_cond.notify_all()

    # ------------------------------------------------------------------
    # Group-commit coordinator (concurrent committers)
    # ------------------------------------------------------------------

    def append_commit(self, tid: int, cid: int) -> int:
        """Write ``tid``'s staged frames and its commit record as one
        contiguous group; returns the group's end-LSN.

        Called inside the manager's commit critical section, so groups
        reach the file in commit-id order. The durability wait happens
        later, outside that section, in :meth:`commit_barrier`.
        """
        frames = self._staged.pop(tid, [])
        frames.append(encode_record(CommitRecord(cid)))
        return self._append(frames, commit=True)

    def commit_barrier(self, lsn: int) -> None:
        """Block until the commit at ``lsn`` is acknowledgeable.

        * sync (``group_size == 1``): wait until ``lsn`` is durable —
          one leader fsyncs for the whole group of waiters;
        * batch (``group_size == N``): fsync only when N commits are
          pending;
        * async (``group_size == 0``): return immediately — the commit
          is acked while possibly not yet durable (the gap is visible
          as acked minus durable).
        """
        t0 = time.perf_counter()
        if self._group_size == 1:
            self._sync_to(lsn)
        elif self._group_size:
            with self._append_lock:
                trigger = self._pending_commits >= self._group_size
            if trigger:
                self._sync_to(lsn)
        # Replication barrier: once the commit is locally
        # acknowledgeable, semi-sync/quorum modes additionally wait for
        # follower apply-acks (async returns immediately but still
        # timestamps the commit for lag accounting).
        replication = self._replication
        if replication is not None:
            replication.wait_commit(lsn)
        if self._instruments_generation != generation():
            self._refresh_instruments()
        self.commits_acked += 1
        self._acked_counter.inc()
        self._fsync_wait_histogram.observe(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # WalHook interface
    # ------------------------------------------------------------------

    def log_insert(self, tid: int, table_id: int, values: Sequence[Value]) -> None:
        self._write(InsertRecord(tid, table_id, tuple(values)))

    def log_insert_many(
        self,
        tid: int,
        table_id: int,
        first_row: int,
        columns: Sequence[Sequence[Value]],
    ) -> None:
        """Stage one framed record for a whole batch (column-major
        values) placed at delta rows ``first_row ..``.

        A batch whose encoded frame would exceed the reader's
        :data:`~repro.wal.records.MAX_RECORD_BYTES` bound is split by
        rows into several records, each naming its own first row — they
        sit in one group, so the halves commit together. A single row
        too large to frame at all raises
        :class:`~repro.wal.records.RecordTooLarge` with nothing of the
        batch staged.
        """
        frames = self._frame_insert_many(
            table_id, first_row, tuple(tuple(c) for c in columns)
        )
        self._staged.setdefault(tid, []).extend(frames)

    def _frame_insert_many(
        self, table_id: int, first_row: int, columns: tuple
    ) -> list[bytes]:
        record = InsertManyRecord(table_id, first_row, columns)
        try:
            return [encode_record(record, self._max_record_bytes)]
        except RecordTooLarge:
            # One row alone busts the frame bound: unsplittable. The
            # transaction fails before its data could become
            # unreplayable.
            if record.row_count <= 1:
                raise
        half = record.row_count // 2
        return self._frame_insert_many(
            table_id, first_row, tuple(col[:half] for col in columns)
        ) + self._frame_insert_many(
            table_id, first_row + half, tuple(col[half:] for col in columns)
        )

    def log_invalidate(self, tid: int, table_id: int, ref: int) -> None:
        self._staged.setdefault(tid, []).append(
            encode_record(InvalidateRecord(table_id, ref))
        )

    def log_abort(self, tid: int) -> None:
        """Forget ``tid``'s staged frames: nothing of it was written."""
        self._staged.pop(tid, None)

    def log_merge(self, table_id: int, watermark: int, main_mask, delta_mask) -> None:
        """Append a merge-cutover record (no fsync: losing it just means
        replay recovers the pre-merge layout, which is equally
        consistent — the fold is a pure transform of logged state)."""
        self._write(
            MergeRecord(
                table_id,
                watermark,
                tuple(np.asarray(main_mask, dtype=bool).tolist()),
                tuple(np.asarray(delta_mask, dtype=bool).tolist()),
            )
        )

    def log_create_table(self, table_id: int, name: str, schema_blob: bytes) -> None:
        self._write(CreateTableRecord(table_id, name, schema_blob))
        self.sync()  # DDL is always durable immediately

    def log_drop_table(self, table_id: int) -> None:
        self._write(DropTableRecord(table_id))
        self.sync()  # DDL is always durable immediately

    def log_create_index(self, table_id: int, column: str) -> None:
        self._write(CreateIndexRecord(table_id, column))
        self.sync()  # DDL is always durable immediately

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()

    def crash(
        self,
        survivor_fraction: float = 0.0,
        seed: Optional[int] = None,
        torn_tail: bool = False,
    ) -> None:
        """Simulate a power failure.

        With ``torn_tail=False`` everything after the last fsync is lost
        — the clean-truncate model. Real disks are messier: the OS may
        have written back any prefix of the un-fsynced bytes, and the
        sector containing the write frontier can hold garbage. With
        ``torn_tail=True`` a ``survivor_fraction`` share of the
        un-fsynced bytes survives (possibly ending mid-record) and
        garbage bytes are appended past the survivors, so recovery's CRC
        framing — and its handling of a log that does not end at a
        record boundary — is actually exercised.

        Everything at or before ``_synced_lsn`` is durable in both
        modes; recovery must never lose it.
        """
        if not self._file.closed:
            # close() flushes Python's userspace buffer to the OS —
            # modelling the page cache, from which the tail is then
            # selectively lost below.
            self._file.close()
        rng = random.Random(seed)
        with open(self._path, "r+b") as f:
            if torn_tail:
                size = os.path.getsize(self._path)
                unsynced = max(size - self._synced_lsn, 0)
                keep = int(unsynced * survivor_fraction)
                frontier = self._synced_lsn + keep
                f.truncate(frontier)
                garbage = bytes(
                    rng.randrange(256) for _ in range(rng.randrange(1, 64))
                )
                f.seek(frontier)
                f.write(garbage)
            else:
                f.truncate(self._synced_lsn)
        self.bytes_written = os.path.getsize(self._path)
