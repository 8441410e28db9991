"""Background maintenance: one condition per action.

One daemon thread per :class:`~repro.core.database.Database`. A table
**merges** online (:mod:`repro.storage.merge`) once its delta holds
``auto_merge_rows`` rows. A LOG engine **checkpoints** once the log
since its last checkpoint would take longer than
``checkpoint_max_replay_s`` to replay at the measured
``recovery_replay_bytes_per_second`` mean: the paper's restart budget.
After an attempt its target *rests* for about twice the attempt's
duration, blended with the ``engine_{action}_seconds`` mean, so a
write-heavy workload cannot livelock the engine into merging back to
back, and a merge that grows with main's size runs less often.

The daemon does not poll. Work only becomes due when a commit lands
(:meth:`MaintenanceDaemon.notify`) or a rest ends, so it sleeps on its
event until the earliest rest end, after one pass at start for what a
restart left over a threshold. A cutover that times out raises
``RuntimeError`` (a merge of a table dropped since it came due,
``KeyError``): it is counted and retried once its target has rested.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.core.config import DurabilityMode
from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database

#: Bounds on a rest: one pathologically slow merge must not park
#: maintenance for minutes, and a writer that never goes idle must not
#: spin the daemon through back-to-back checkpoints.
_MIN_REST_S = 0.01
_MAX_REST_S = 5.0

#: Replay throughput assumed before any recovery has been measured:
#: conservative, so the first checkpoints come sooner rather than later.
_FALLBACK_REPLAY_BYTES_PER_S = 16 * 1024 * 1024

#: Rest key of the checkpoint action (a merge rests per table id).
_CHECKPOINT = "checkpoint"


class MaintenanceDaemon:
    """Background merge and checkpoint scheduler for one engine."""

    def __init__(self, db: "Database"):
        self._db = db
        cfg = db.config
        # One condition per action; None turns the action off.
        self._merge_rows = cfg.auto_merge_rows
        log = cfg.mode == DurabilityMode.LOG
        self._max_replay_s = cfg.checkpoint_max_replay_s if log else None
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._idle = threading.Condition()
        self._busy = False
        # Target (table id or _CHECKPOINT) -> monotonic end of its rest.
        self._rest_until: dict = {}
        self._thread: Optional[threading.Thread] = None

    @property
    def enabled(self) -> bool:
        return self._merge_rows is not None or self._max_replay_s is not None

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

    def notify(self, ops: list) -> None:
        """A commit with these operations landed: wake the daemon."""
        if ops and self._thread is not None:
            self._wake.set()

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until nothing is due and nothing runs; False on timeout.
        A test hook: assert post-maintenance state without sleeping."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._idle:
                if not self._busy and not any(self._due(resting_too=True)):
                    return True
            time.sleep(0.002)
        return False

    def _due(self, *, resting_too: bool = False) -> Iterator[tuple]:
        """Yield ``(target, action, run)`` for each step due, merges
        first. Lazy: the checkpoint condition is read after the merges
        ran, since a LOG merge checkpoints too."""
        now = time.monotonic()

        def ready(target) -> bool:
            return resting_too or self._rest_until.get(target, 0.0) <= now

        db = self._db
        if self._merge_rows is not None:
            for table in list(db._tables_by_id.values()):
                rows = table.delta_row_count
                if rows >= self._merge_rows and ready(table.table_id):
                    merge = functools.partial(db.merge, table.name)
                    yield table.table_id, "merge", merge
        if (
            self._max_replay_s is not None
            and ready(_CHECKPOINT)
            and self._estimated_replay_s() > self._max_replay_s
        ):
            yield _CHECKPOINT, "checkpoint", db.checkpoint

    def _estimated_replay_s(self) -> float:
        """Restart cost of the log since the last checkpoint."""
        hist = get_registry().histogram("recovery_replay_bytes_per_second")
        measured = hist.count and hist.sum > 0
        rate = hist.sum / hist.count if measured else _FALLBACK_REPLAY_BYTES_PER_S
        return self._db._driver.log_bytes_since_checkpoint / rate

    def _rest_s(self, action: str, duration_s: float) -> float:
        """Twice this attempt's duration, blended with the engine-wide mean
        so one unusually fast or slow attempt does not whipsaw pacing."""
        mean = duration_s
        hist = get_registry().histogram(f"engine_{action}_seconds")
        if hist.count:
            mean = (mean + hist.sum / hist.count) / 2.0
        return min(max(2.0 * mean, _MIN_REST_S), _MAX_REST_S)

    def _run(self) -> None:
        while not self._stop.is_set():
            # Cleared before the pass: a commit that lands during it
            # sets the event again, and the wait below returns at once.
            self._wake.clear()
            now = time.monotonic()
            rests = {t: end for t, end in self._rest_until.items() if end > now}
            self._rest_until = rests
            for target, action, run in self._due():
                if self._stop.is_set() or not self._attempt(target, action, run):
                    return
            # Until the earliest rest end; 0 when one ended during the
            # pass, so the next pass looks at its target again.
            timeout = None
            if rests:
                timeout = max(0.0, min(rests.values()) - time.monotonic())
            self._wake.wait(timeout)

    def _attempt(self, target, action: str, run: Callable[[], object]) -> bool:
        """Run one step and set its target's rest; False once the engine
        is dead and the daemon must go quiet."""
        registry = get_registry()
        with self._idle:
            self._busy = True
        t0 = time.monotonic()
        try:
            run()
        except (RuntimeError, KeyError):
            # A cutover starved by a transaction holding operations, or
            # a table dropped since it came due: retry after the rest.
            registry.counter(f"maintenance_{action}_failures_total").inc()
        except BaseException:
            # A simulated power failure (or shutdown race) on the
            # daemon thread: the engine is dead; go quiet.
            registry.counter(f"maintenance_{action}_failures_total").inc()
            return False
        else:
            registry.counter(f"maintenance_{action}s_total").inc()
        finally:
            with self._idle:
                self._busy = False
        rest = self._rest_s(action, time.monotonic() - t0)
        self._rest_until[target] = time.monotonic() + rest
        return True
