"""Read replica: a continuous apply loop over the replay machinery.

A :class:`Follower` is *not* a full engine. It owns the
:class:`~repro.recovery.log_recovery.LogReplayer` crash recovery runs —
same class, just never finished — positioned at the primary's
checkpoint chain and fed by a background thread with whatever shipped
payloads its queue holds. Reads go through the ordinary vectorized scan
path at the replayer's last applied commit id, so a follower serves the
identical query surface as the primary, seconds-fresh.

Two invariants make promotion trivial:

* the follower mirrors every shipped payload, re-framed, into a local
  log file at the **same byte offsets** as the primary's log (the prefix
  before the bootstrap checkpoint is a hole — ``truncate`` extends the
  file sparsely), so LSNs mean the same thing on both sides;
* the bootstrap chain is installed under the follower's own
  ``checkpoints/`` with its original ``lsn``.

``promote()`` therefore is exactly an instant-restart: open a
:class:`~repro.core.database.Database` in LOG mode over the follower's
directory — checkpoint load, log replay and truncation of the torn tail
(a group whose commit record never shipped included) all run the code
paths the crash sweep already certifies.
"""

from __future__ import annotations

import os
import queue
import shutil
import threading
import time
from dataclasses import replace
from typing import Callable, Optional

from repro.core.config import DurabilityMode, EngineConfig
from repro.obs import generation, get_registry
from repro.query.predicate import Predicate
from repro.query.scan import ScanResult, scan
from repro.recovery.log_recovery import LogReplayer
from repro.storage.backend import VolatileBackend
from repro.wal.checkpoint import CheckpointChain, chain_dir
from repro.wal.records import frame_payload

_STOP = object()  # apply-queue sentinel


class Follower:
    """One read replica fed by a :class:`~repro.replication.WalShipper`."""

    def __init__(self, path: str, name: str = "follower"):
        self.path = path
        self.name = name
        self.backend = VolatileBackend()
        self._replayer: Optional[LogReplayer] = None
        self._queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._log_file = None
        self._applied_lsn = 0
        self._applied_cond = threading.Condition()
        self._on_ack: Optional[Callable[[int], None]] = None
        self._instruments_generation = -1
        self._refresh_instruments()

    def _refresh_instruments(self) -> None:
        registry = get_registry()
        self._applies_counter = registry.counter(
            "follower_applies_total", follower=self.name
        )
        self._commits_counter = registry.counter(
            "follower_commits_applied_total", follower=self.name
        )
        self._instruments_generation = generation()

    # -- bootstrap -----------------------------------------------------

    @property
    def log_path(self) -> str:
        return os.path.join(self.path, "wal.log")

    def bootstrap(self, chain_src: Optional[str], start_lsn: int) -> None:
        """Install the primary's checkpoint chain; open the log mirror.

        ``chain_src`` is the shipper's pinned chain directory (``None``
        when the primary has none — replay then starts from an empty
        database at LSN 0). ``start_lsn`` is the primary log offset the
        stream will start at; it must equal the chain's own ``lsn`` so
        offsets stay aligned.
        """
        os.makedirs(self.path, exist_ok=True)
        own_chain = chain_dir(self.path)
        if chain_src is None or CheckpointChain(chain_src).pin(own_chain) is None:
            shutil.rmtree(own_chain, ignore_errors=True)  # reused dir
        self._replayer = LogReplayer(self.backend, own_chain)
        if self._replayer.start_lsn != start_lsn:
            raise ValueError(
                f"checkpoint lsn {self._replayer.start_lsn} != "
                f"stream start {start_lsn}"
            )
        # Local log mirror at primary byte offsets: the pre-checkpoint
        # prefix is a sparse hole, appends start exactly at start_lsn.
        self._log_file = open(self.log_path, "wb")
        self._log_file.truncate(start_lsn)
        self._log_file.seek(start_lsn)
        self._applied_lsn = start_lsn

    # -- apply loop ----------------------------------------------------

    def start(self) -> None:
        if self._replayer is None:
            raise RuntimeError("bootstrap() before start()")
        self._thread = threading.Thread(
            target=self._apply_loop, name=f"apply-{self.name}", daemon=True
        )
        self._thread.start()

    def enqueue(self, payload: bytes, end_lsn: int) -> None:
        """Hand one shipped payload to the apply loop (shipper thread)."""
        self._queue.put((payload, end_lsn))

    def _apply_loop(self) -> None:
        replayer = self._replayer
        while True:
            item = self._queue.get()
            records, commits = replayer.records, replayer.commits
            # Feed whatever has queued up (bounded), then apply it as
            # one batch. Mirror first, apply second: if the apply loop
            # dies between the two, the log holds at least everything
            # applied — the promotion replay can only know *more* than
            # the tables do.
            while item is not _STOP:
                payload, end_lsn = item
                self._log_file.write(frame_payload(payload))
                if replayer.feed(payload, end_lsn):
                    break
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
            replayer.drain()
            if self._instruments_generation != generation():
                self._refresh_instruments()
            self._applies_counter.inc(replayer.records - records)
            self._commits_counter.inc(replayer.commits - commits)
            # Publish only now: everything up to ``replayer.lsn`` —
            # and every commit up to ``last_cid`` — is applied.
            with self._applied_cond:
                self._applied_lsn = replayer.lsn
                self._applied_cond.notify_all()
            on_ack = self._on_ack
            if on_ack is not None:
                on_ack(replayer.lsn)
            if item is _STOP:
                return

    @property
    def applied_lsn(self) -> int:
        """Primary log offset up to which this follower has applied."""
        return self._applied_lsn

    @property
    def last_cid(self) -> int:
        return self._replayer.last_cid if self._replayer else 0

    def wait_for(self, lsn: int, timeout_s: float = 10.0) -> bool:
        """Block until the apply frontier reaches ``lsn`` (or timeout)."""
        deadline = time.monotonic() + timeout_s
        with self._applied_cond:
            while self._applied_lsn < lsn:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._applied_cond.wait(remaining)
        return True

    # -- reads ---------------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(self._replayer.names)

    def query(
        self, table_name: str, predicate: Optional[Predicate] = None
    ) -> ScanResult:
        """Vectorized scan at the last applied commit's snapshot.

        Commit application is atomic with respect to MVCC visibility
        (begin-cid stores publish the rows), so a scan pinned at the
        captured ``last_cid`` is consistent even while the apply loop
        keeps running.
        """
        replayer = self._replayer
        try:
            table = replayer.names[table_name]
        except KeyError:
            raise KeyError(
                f"no table {table_name!r}; have {sorted(replayer.names)}"
            ) from None
        return scan(table, snapshot_cid=replayer.last_cid, predicate=predicate)

    # -- failover ------------------------------------------------------

    def promote(self, config: Optional[EngineConfig] = None):
        """Stop applying and reopen this replica as a writable primary.

        Drains the apply queue, flushes the local log mirror, then runs
        the **instant-restart fix-up** over the follower directory:
        opening a LOG-mode :class:`~repro.core.database.Database` there
        replays checkpoint + log and truncates whatever torn tail the
        dead primary shipped — a transaction whose commit record never
        arrived is part of that tail. Returns the opened database.
        """
        self.close()
        if config is None:
            config = EngineConfig(mode=DurabilityMode.LOG)
        elif config.mode is not DurabilityMode.LOG:
            config = replace(config, mode=DurabilityMode.LOG)
        from repro.core.database import Database

        return Database(self.path, config)

    def _stop_apply(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            self._queue.put(_STOP)
            self._thread.join()
        self._thread = None

    def close(self) -> None:
        self._stop_apply()
        if self._log_file is not None and not self._log_file.closed:
            self._log_file.flush()
            self._log_file.close()
