"""Crash-point injection: enumerate persistence boundaries, kill at one.

ALICE-style systematic crash-state construction (Pillai et al., OSDI
2014): every event after which state may become durable — a cache-line
flush, a persist barrier, a WAL fsync, a checkpoint fsync — is a *crash
point*. The :class:`CrashPointInjector` hooks the persistence-boundary
event stream owned by :mod:`repro.obs.boundary` (the same choke point
that feeds the metrics registry, so the counts enumerated here and the
telemetry counters observe identical streams); in counting mode it
enumerates the points of a workload, in trigger mode it raises
:class:`SimulatedPowerFailure` at a chosen point, *before* that event
takes effect, and at every event after it (the power stays off), so
concurrent writer and merge threads cannot persist anything past the
cut either.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Optional

from repro.obs.boundary import set_hook as set_persistence_hook


class SimulatedPowerFailure(BaseException):
    """Raised at a persistence boundary to model power loss.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so that
    ``except Exception`` cleanup handlers in the engine or a workload
    cannot swallow it and keep running — nothing survives a power cut,
    least of all error handling.
    """


class CrashPointInjector:
    """Counts persistence-boundary events; optionally kills at point k.

    ``crash_at=None`` is counting mode: events are tallied (``events``,
    ``by_kind``) and nothing is raised. ``crash_at=k`` (1-based) raises
    :class:`SimulatedPowerFailure` when the k-th event is attempted —
    the event itself never completes — and on every later event.

    Use as a context manager; it installs itself as the process-global
    persistence hook and always uninstalls on exit. The counter is
    lock-protected because writer and merge threads report events
    concurrently.
    """

    def __init__(self, crash_at: Optional[int] = None):
        if crash_at is not None and crash_at < 1:
            raise ValueError("crash_at is 1-based")
        self.crash_at = crash_at
        self.events = 0
        self.by_kind: Counter = Counter()
        self.fired = False
        self.fired_kind: Optional[str] = None
        self._lock = threading.Lock()

    def __call__(self, kind: str) -> None:
        with self._lock:
            if self.fired:
                raise SimulatedPowerFailure(
                    f"power is off (failed at event #{self.crash_at})"
                )
            self.events += 1
            self.by_kind[kind] += 1
            if self.crash_at is not None and self.events >= self.crash_at:
                self.fired = True
                self.fired_kind = kind
                raise SimulatedPowerFailure(
                    f"power failure at persistence event #{self.events} ({kind})"
                )

    def __enter__(self) -> "CrashPointInjector":
        set_persistence_hook(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_persistence_hook(None)
