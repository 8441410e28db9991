"""Background maintenance: metrics-driven online merges and checkpoints.

One daemon thread per :class:`~repro.core.database.Database` watches the
tables whose deltas are growing and folds them into fresh main
generations with the *online* merge (readers and writers keep running;
see :mod:`repro.storage.merge`). Commits wake the daemon by notifying
the table ids they touched; between wakes it polls, so a table that
crossed a threshold while the daemon was busy is never forgotten.

Scheduling is driven by live observability state rather than by the
write path: the policy reads each table's delta row count and delta
fraction, and paces itself with the engine's own merge-duration
telemetry (``engine_merge_seconds``) — after a merge that took *d*
seconds, the same table is left alone for ~2·d so a write-heavy
workload cannot livelock the engine into merging back-to-back.

The same pass schedules **checkpoints** for the LOG engine: a
checkpoint is due when the WAL has grown past
``checkpoint_log_bytes`` since the last one, or when the *estimated
replay time* of the pending log tail — pending bytes divided by the
mean of the ``recovery_replay_bytes_per_second`` histogram, which every
recovery feeds — exceeds ``checkpoint_max_replay_s``. The second
trigger is the paper's restart-budget knob: it bounds how long a crash
at this moment would take to recover from, adapting automatically as
measured replay throughput changes (e.g. more replay workers =>
checkpoints allowed to lag further).

The daemon is deliberately forgiving: a merge whose cutover times out,
or a checkpoint attempted while transactions are active, raises
``RuntimeError``, which is counted and retried on a later pass instead
of crashing the thread.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.config import DurabilityMode
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database

#: Upper bound on the post-merge cooldown, so one pathologically slow
#: merge cannot park maintenance for minutes.
_MAX_COOLDOWN_S = 5.0

#: Replay throughput assumed before any recovery has been measured
#: (conservative, so the first checkpoints come sooner rather than
#: later); replaced by the histogram mean after the first restart.
_FALLBACK_REPLAY_BYTES_PER_S = 16 * 1024 * 1024


class MaintenanceDaemon:
    """Metrics-driven background merge scheduler for one engine."""

    def __init__(self, db: "Database"):
        self._db = db
        self._config = db.config
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._idle = threading.Condition()
        self._busy = False
        # Tables explicitly nudged by commits since the last pass.
        self._pending: set[int] = set()
        self._pending_lock = threading.Lock()
        # table_id -> monotonic time before which we leave it alone.
        self._cooldown_until: dict[int, float] = {}
        self._checkpoint_cooldown_until = 0.0
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def _merge_enabled(self) -> bool:
        cfg = self._config
        return (
            cfg.auto_merge_rows is not None
            or cfg.merge_delta_fraction is not None
        )

    @property
    def _checkpoint_enabled(self) -> bool:
        cfg = self._config
        return cfg.mode == DurabilityMode.LOG and (
            cfg.checkpoint_log_bytes is not None
            or cfg.checkpoint_max_replay_s is not None
        )

    @property
    def enabled(self) -> bool:
        return self._merge_enabled or self._checkpoint_enabled

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if not self.enabled or self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-maintenance", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the daemon, wait for any in-flight merge to finish, and
        let go of the engine (which holds the daemon: no cycle)."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join()
        self._thread = None
        self._db = None

    # -- write-path interface ------------------------------------------

    def notify(self, table_ids: Iterable[int]) -> None:
        """Nudge the daemon: these tables just received writes."""
        if not self.enabled:
            return
        ids = set(table_ids)
        if not ids:
            return
        with self._pending_lock:
            self._pending |= ids
        self._wake.set()

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until nothing is due and no maintenance is running.

        Returns False on timeout. Test/benchmark hook: lets callers
        assert post-merge/post-checkpoint state without sleeping for
        arbitrary periods.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._idle:
                if (
                    not self._busy
                    and not self._due_tables(ignore_cooldown=True)
                    and not self._checkpoint_due(ignore_cooldown=True)
                ):
                    return True
            time.sleep(0.002)
        return False

    # -- policy --------------------------------------------------------

    def _due(self, table, *, ignore_cooldown: bool = False) -> bool:
        cfg = self._config
        delta_rows = table.delta_row_count
        if delta_rows == 0:
            return False
        if not ignore_cooldown:
            until = self._cooldown_until.get(table.table_id, 0.0)
            if time.monotonic() < until:
                return False
        if cfg.auto_merge_rows is not None and delta_rows >= cfg.auto_merge_rows:
            return True
        if cfg.merge_delta_fraction is not None:
            total = table.row_count
            if (
                delta_rows >= cfg.merge_delta_fraction_floor
                and total > 0
                and delta_rows / total >= cfg.merge_delta_fraction
            ):
                return True
        return False

    def _due_tables(self, *, ignore_cooldown: bool = False) -> list:
        return [
            table
            for table in list(self._db._tables_by_id.values())
            if self._due(table, ignore_cooldown=ignore_cooldown)
        ]

    def _cooldown_for(self, duration_s: float) -> float:
        """Cooldown after a merge: ~2x its duration, metrics-informed.

        The duration of *this* merge is blended with the engine-wide
        mean from the ``engine_merge_seconds`` histogram so one
        unusually fast (or slow) merge does not whipsaw the pacing.
        """
        mean = duration_s
        hist = get_registry().histogram("engine_merge_seconds")
        if hist.count:
            mean = (mean + hist.sum / hist.count) / 2.0
        return min(2.0 * mean, _MAX_COOLDOWN_S)

    def _estimated_replay_s(self, pending_bytes: int) -> float:
        """Restart cost of the pending log tail at measured throughput.

        Uses the mean of ``recovery_replay_bytes_per_second`` (fed by
        every recovery, serial or parallel); before the first measured
        recovery a conservative fallback rate applies.
        """
        hist = get_registry().histogram("recovery_replay_bytes_per_second")
        rate = (
            hist.sum / hist.count
            if hist.count
            else _FALLBACK_REPLAY_BYTES_PER_S
        )
        if rate <= 0:
            rate = _FALLBACK_REPLAY_BYTES_PER_S
        return pending_bytes / rate

    def _checkpoint_due(self, *, ignore_cooldown: bool = False) -> bool:
        if not self._checkpoint_enabled:
            return False
        if not ignore_cooldown and time.monotonic() < self._checkpoint_cooldown_until:
            return False
        driver = self._db._driver
        pending = getattr(driver, "log_bytes_since_checkpoint", 0)
        if pending <= 0:
            return False
        cfg = self._config
        if (
            cfg.checkpoint_log_bytes is not None
            and pending >= cfg.checkpoint_log_bytes
        ):
            return True
        if (
            cfg.checkpoint_max_replay_s is not None
            and self._estimated_replay_s(pending) >= cfg.checkpoint_max_replay_s
        ):
            return True
        return False

    # -- daemon loop ---------------------------------------------------

    def _run(self) -> None:
        registry = get_registry()
        merges = registry.counter("maintenance_merges_total")
        failures = registry.counter("maintenance_merge_failures_total")
        checkpoints = registry.counter("maintenance_checkpoints_total")
        ckpt_failures = registry.counter(
            "maintenance_checkpoint_failures_total"
        )
        while not self._stop.is_set():
            self._wake.wait(timeout=self._config.maintenance_interval_s)
            self._wake.clear()
            if self._stop.is_set():
                return
            with self._pending_lock:
                self._pending.clear()
            for table in self._due_tables():
                if self._stop.is_set():
                    return
                with self._idle:
                    self._busy = True
                t0 = time.monotonic()
                try:
                    self._db.merge(table.name)
                    merges.inc()
                except RuntimeError:
                    # Cutover starved out (a transaction held operations
                    # on the table for the whole window) — retry later.
                    failures.inc()
                    self._cooldown_until[table.table_id] = (
                        time.monotonic() + self._config.maintenance_interval_s
                    )
                except BaseException:
                    # A simulated power failure (or shutdown race) on
                    # the daemon thread: the engine is dead; go quiet.
                    failures.inc()
                    with self._idle:
                        self._busy = False
                    return
                else:
                    self._cooldown_until[table.table_id] = (
                        time.monotonic()
                        + self._cooldown_for(time.monotonic() - t0)
                    )
                finally:
                    with self._idle:
                        self._busy = False
            if self._checkpoint_due() and not self._stop.is_set():
                with self._idle:
                    self._busy = True
                t0 = time.monotonic()
                try:
                    self._db.checkpoint()
                    checkpoints.inc()
                except RuntimeError:
                    # Transactions were active — retry on a later pass.
                    ckpt_failures.inc()
                    self._checkpoint_cooldown_until = (
                        time.monotonic() + self._config.maintenance_interval_s
                    )
                except BaseException:
                    ckpt_failures.inc()
                    with self._idle:
                        self._busy = False
                    return
                else:
                    self._checkpoint_cooldown_until = (
                        time.monotonic()
                        + self._checkpoint_cooldown_for(
                            time.monotonic() - t0
                        )
                    )
                finally:
                    with self._idle:
                        self._busy = False

    def _checkpoint_cooldown_for(self, duration_s: float) -> float:
        """Post-checkpoint pacing, same shape as the merge cooldown."""
        mean = duration_s
        hist = get_registry().histogram("engine_checkpoint_seconds")
        if hist.count:
            mean = (mean + hist.sum / hist.count) / 2.0
        return min(2.0 * mean, _MAX_COOLDOWN_S)
