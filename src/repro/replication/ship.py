"""WAL shipping: tail the primary's log and stream it to followers.

One :class:`WalShipper` binds to one primary engine, tails its log with
:func:`~repro.wal.reader.tail_log` from a resumable LSN, and fans each
CRC-checked payload — never decoded on the primary — out to every
registered :class:`~repro.replication.follower.Follower`'s apply queue.
Acknowledgement semantics follow the classic durability ladder:

* :data:`AckMode.ASYNC` — commits never wait for followers; shipping
  trails the primary's *fsync frontier* (a follower can never be ahead
  of what the primary would itself recover, so failover to it loses at
  most the primary's own acked-but-not-durable window);
* :data:`AckMode.SEMI_SYNC` — the commit barrier additionally waits
  until ≥1 follower has **applied** the commit record; an acked commit
  therefore survives the primary's total loss;
* :data:`AckMode.QUORUM` — like semi-sync but a majority of followers
  must apply before the ack.

A semi-sync/quorum wait that exceeds ``ack_timeout_s`` degrades that
one commit to async (counted in ``replication_ack_timeouts_total``)
instead of stalling the primary forever — the MySQL semisync escape
hatch.

Primaries without a WAL (the NVM engine) replicate through a *ship
log*: a secondary ``group_size=0`` :class:`~repro.wal.writer.LogWriter`
the shipper creates and wires as the transaction manager's WAL hook, so
every operation and DDL record is mirrored into a shippable stream while
the pmem pool remains the primary's own durability mechanism.

Followers bootstrap from a checkpoint chain in the primary's ``ship/``
directory: a LOG primary *pins* its current chain link there at attach
(hard links — a later checkpoint's GC cannot pull the files away), an
NVM primary publishes its attach-time pool snapshot, with its index
declarations, there as a one-link chain. Either attach runs beside open
transactions, whose records are staged (by the LOG writer as they were
written; into the ship log from their operations so far when it is
wired) and ship as one group when they commit. The NVM attach wires
the ship log and reads ``last_cid`` in one hold, then snapshots the pool
as of it; a failed attach and :meth:`WalShipper.stop` unwire and close
the ship log.
"""

from __future__ import annotations

import enum
import os
import shutil
import threading
import time
from typing import Optional

from repro.core.database import Database
from repro.core.durability import LogDriver, NvmDriver
from repro.obs import generation, get_registry
from repro.replication.follower import Follower
from repro.wal.checkpoint import CheckpointChain, snapshot_table
from repro.wal.reader import tail_log
from repro.wal.writer import LogWriter


class AckMode(enum.Enum):
    """How many follower apply-acks a commit waits for."""

    ASYNC = "async"
    SEMI_SYNC = "semi_sync"
    QUORUM = "quorum"

    def required_acks(self, follower_count: int) -> int:
        if self is AckMode.ASYNC:
            return 0
        if self is AckMode.SEMI_SYNC:
            return min(1, follower_count)
        return follower_count // 2 + 1  # majority


class WalShipper:
    """Streams the primary's log to followers; owns the ack barrier."""

    def __init__(
        self,
        primary: Database,
        ack_mode: AckMode | str = AckMode.ASYNC,
        ack_timeout_s: float = 10.0,
        poll_interval_s: float = 0.0005,
    ):
        self.primary = primary
        self.ack_mode = AckMode(ack_mode)
        self.ack_timeout_s = ack_timeout_s
        self._poll_interval_s = poll_interval_s
        driver = primary._driver
        #: Chain directory followers bootstrap from (None: no snapshot,
        #: the stream is the whole log from byte 0).
        self._ship_dir: Optional[str] = os.path.join(driver.path, "ship")
        self._nvm = isinstance(driver, NvmDriver)
        if isinstance(driver, LogDriver):
            self._wal: LogWriter = driver.wal
            self._log_path = driver.log_path
            pinned = driver._chain.pin(self._ship_dir)
            if pinned is None:
                self._ship_dir, self.start_lsn = None, 0
            else:
                self.start_lsn = pinned.lsn
        elif isinstance(driver, NvmDriver):
            self._log_path = driver.ship_log_path
            # Not beside DDL or a merge cutover, as for a checkpoint link.
            with primary._maint_lock:
                if os.path.exists(self._log_path):
                    os.remove(self._log_path)  # a past attach's stream
                # Async: transport, not durability (that is the pool).
                self._wal = LogWriter(self._log_path, group_size=0)
                try:
                    last_cid = driver.attach_ship_log(self._wal)
                    # As of last_cid: a later commit ships whole in the log.
                    tables = primary._tables_by_id.values()
                    snapshots = [snapshot_table(t, last_cid) for t in tables]
                    next_id = driver._catalog.next_table_id
                    indexes = {t: list(ix) for t, ix in primary._indexes.items()}
                    shutil.rmtree(self._ship_dir, ignore_errors=True)
                    CheckpointChain(self._ship_dir).publish(
                        snapshots, {}, last_cid, 0, next_id, indexes
                    )
                except Exception:
                    driver.attach_ship_log(None)
                    self._wal.close()
                    raise
            self.start_lsn = 0
        else:
            raise RuntimeError(f"cannot ship from a {driver.mode.value!r} primary")
        self.shipped_lsn = self.start_lsn
        self._followers: list[Follower] = []
        self._acked: dict[str, int] = {}
        self._ack_cond = threading.Condition()
        self._commit_times: dict[int, float] = {}
        self._last_flush_nudge = 0.0
        self._stopped = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._instruments_generation = -1
        self._refresh_instruments()
        self._wal.set_replication(self)

    def _refresh_instruments(self) -> None:
        registry = get_registry()
        self._lag_bytes_gauge = registry.gauge("replication_lag_bytes")
        self._lag_seconds_gauge = registry.gauge("replication_lag_seconds")
        self._shipped_counter = registry.counter(
            "replication_records_shipped_total"
        )
        self._timeout_counter = registry.counter(
            "replication_ack_timeouts_total"
        )
        self._ack_wait_histogram = registry.histogram(
            "replication_ack_wait_seconds"
        )
        self._apply_lag_histogram = registry.histogram(
            "replication_apply_lag_seconds"
        )
        self._instruments_generation = generation()

    # -- membership ----------------------------------------------------

    def add_follower(self, follower: Follower) -> Follower:
        """Bootstrap ``follower`` from the attach-time snapshot.

        Must happen before :meth:`start`: every follower consumes the
        stream from the same resumable LSN, so the single tailer thread
        can fan one read out to all apply queues.
        """
        if self._thread is not None:
            raise RuntimeError("add followers before start()")
        follower.bootstrap(self._ship_dir, self.start_lsn)
        follower._on_ack = lambda lsn, f=follower: self._ack(f, lsn)
        self._followers.append(follower)
        self._acked[follower.name] = self.start_lsn
        return follower

    # -- shipping ------------------------------------------------------

    def start(self) -> None:
        if not self._followers:
            raise RuntimeError("no followers to ship to")
        for follower in self._followers:
            follower.start()
        self._thread = threading.Thread(
            target=self._ship_loop, name="wal-shipper", daemon=True
        )
        self._thread.start()

    def _frontier(self) -> Optional[int]:
        """Upper bound on what may be shipped right now.

        Async mode on a WAL primary ships only what the primary has
        fsynced — a follower must never get ahead of what the primary
        itself would recover, or a *primary* restart (not failover)
        would leave the replica with phantom commits. Semi-sync/quorum
        ship immediately: the whole point is that the follower holds
        the commit before the client sees the ack. NVM primaries have
        no such gap — the pool made the operation durable before the
        ship log saw it — so everything visible may ship.

        ``tail_log`` calls this every poll, which doubles as the hook
        to nudge the writer's userspace buffer into the OS now and
        then: an async writer flushes only at checkpoint/close, and
        the tailer can only see flushed bytes.
        """
        now = time.monotonic()
        if now - self._last_flush_nudge > 0.005:
            self._last_flush_nudge = now
            try:
                self._wal.flush_to_os()
            except ValueError:  # writer already closed
                pass
        if not self._nvm and self.ack_mode is AckMode.ASYNC:
            return self._wal.durable_lsn
        return None

    def _ship_loop(self) -> None:
        tail = tail_log(
            self._log_path,
            from_lsn=self.start_lsn,
            poll_interval_s=self._poll_interval_s,
            stop=self._stopped.is_set,
            frontier=self._frontier,
            decode=False,
        )
        for payload, end_lsn in tail:
            for follower in self._followers:
                follower.enqueue(payload, end_lsn)
            self.shipped_lsn = end_lsn
            if self._instruments_generation != generation():
                self._refresh_instruments()
            self._shipped_counter.inc()

    # -- the commit barrier hook (LogWriter calls this) ----------------

    def wait_commit(self, lsn: int) -> None:
        """Hold a commit ack until enough followers applied ``lsn``.

        Called by :meth:`LogWriter.commit_barrier` after the local
        durability policy is satisfied, outside every engine lock.
        """
        if self._instruments_generation != generation():
            self._refresh_instruments()
        with self._ack_cond:
            self._commit_times[lsn] = time.monotonic()
        need = self.ack_mode.required_acks(len(self._followers))
        if need == 0 or self._stopped.is_set():
            return
        # Push the commit's bytes to where the tailer can see them —
        # with an async local policy they may still sit in userspace.
        try:
            self._wal.flush_to_os()
        except ValueError:
            return
        t0 = time.monotonic()
        deadline = t0 + self.ack_timeout_s
        with self._ack_cond:
            while self._ack_count(lsn) < need and not self._stopped.is_set():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Degrade this commit to async rather than wedging
                    # the primary on a dead/slow follower.
                    self._timeout_counter.inc()
                    break
                self._ack_cond.wait(remaining)
        self._ack_wait_histogram.observe(time.monotonic() - t0)

    def _ack_count(self, lsn: int) -> int:
        return sum(1 for acked in self._acked.values() if acked >= lsn)

    def _ack(self, follower: Follower, lsn: int) -> None:
        """Apply-ack from a follower's apply loop."""
        if self._instruments_generation != generation():
            self._refresh_instruments()
        with self._ack_cond:
            self._acked[follower.name] = lsn
            slowest = min(self._acked.values())
            # Commits the slowest follower has now applied: their
            # ship→apply latency is the replication lag in seconds.
            done = [l for l in self._commit_times if l <= slowest]
            latest = 0.0
            for commit_lsn in done:
                latest = max(
                    latest,
                    time.monotonic() - self._commit_times.pop(commit_lsn),
                )
            self._ack_cond.notify_all()
        self._lag_bytes_gauge.set(max(self._wal.lsn - slowest, 0))
        if done:
            self._lag_seconds_gauge.set(latest)
            self._apply_lag_histogram.observe(latest)

    # -- control -------------------------------------------------------

    def sync_followers(self, timeout_s: float = 10.0) -> bool:
        """Block until every follower applied everything written so far."""
        try:
            target = self._wal.flush_to_os()
        except ValueError:
            target = self.shipped_lsn
        return all(f.wait_for(target, timeout_s) for f in self._followers)

    def status(self) -> dict:
        end = self._wal.lsn
        return {
            "ack_mode": self.ack_mode.value,
            "start_lsn": self.start_lsn,
            "primary_lsn": end,
            "shipped_lsn": self.shipped_lsn,
            "followers": {
                f.name: {
                    "applied_lsn": f.applied_lsn,
                    "lag_bytes": max(end - f.applied_lsn, 0),
                }
                for f in self._followers
            },
        }

    def stop(self) -> None:
        """Stop shipping; release any commit waiting on an ack.

        Followers keep their queued records and may still be promoted;
        the primary's commits no longer wait on replication, and an NVM
        primary no longer mirrors them into its ship log.
        """
        self._stopped.set()
        self._wal.set_replication(None)
        with self._ack_cond:
            self._ack_cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._nvm:
            with self.primary._maint_lock:
                if self.primary._driver.wal is self._wal:  # not a later one
                    self.primary._driver.attach_ship_log(None)

    def close(self) -> None:
        self.stop()
        for follower in self._followers:
            follower.close()
