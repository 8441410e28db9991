"""NVM latency modelling and access accounting.

Real NVM is slower than DRAM, particularly for writes, and the paper's
throughput experiments depend on that asymmetry. Since no NVDIMM is
available, the pool supports two complementary mechanisms:

* **Accounting** — every read, write, flush and drain is counted so a
  benchmark can report a *modelled* NVM time component alongside wall
  time (``NvmStats.modelled_ns``).
* **Injection** — when a latency model specifies non-zero delays, the
  pool busy-waits for the configured duration on each flush/drain so the
  slowdown shows up in measured wall time. Python's per-operation
  overhead is on the order of microseconds, so injected delays use a
  microsecond scale rather than the nanosecond scale of real hardware;
  this inflates constants but preserves the relative shape of latency
  sweeps (experiment E4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import boundary

# ----------------------------------------------------------------------
# Persistence-boundary instrumentation
# ----------------------------------------------------------------------
#
# Every event after which state may become durable — a cache-line flush,
# a persist barrier (drain), a WAL fsync, a checkpoint fsync — reports
# through :mod:`repro.obs.boundary`, the single emission point feeding
# both the process metrics registry (persistence_events_total{kind})
# and the fault-injection hook the crash-point sweep installs. The
# aliases below keep this module the import surface the persistence
# layers and tests have always used.

set_persistence_hook = boundary.set_hook
get_persistence_hook = boundary.get_hook
persistence_event = boundary.emit


@dataclass
class LatencyModel:
    """Delay and cost parameters for a simulated NVM device.

    All ``*_ns`` fields feed the modelled-time accounting; the
    ``injected_*_ns`` fields cause real busy-waits when non-zero.

    The defaults model the DRAM-relative figures commonly assumed in the
    NVM literature of the paper's era: reads ~2x DRAM (~200 ns/line),
    writes ~5x (~500 ns/line), with a write multiplier hook used by the
    latency-sensitivity sweep.
    """

    read_ns_per_line: float = 200.0
    write_ns_per_line: float = 500.0
    drain_ns: float = 100.0
    write_multiplier: float = 1.0
    injected_flush_ns: int = 0
    injected_drain_ns: int = 0

    def scaled(self, write_multiplier: float) -> "LatencyModel":
        """Return a copy with write latency scaled by ``write_multiplier``."""
        return LatencyModel(
            read_ns_per_line=self.read_ns_per_line,
            write_ns_per_line=self.write_ns_per_line,
            drain_ns=self.drain_ns,
            write_multiplier=write_multiplier,
            injected_flush_ns=self.injected_flush_ns,
            injected_drain_ns=self.injected_drain_ns,
        )


@dataclass
class NvmStats:
    """Access counters for one pool, used by benchmarks and tests."""

    bytes_read: int = 0
    bytes_written: int = 0
    lines_flushed: int = 0
    flush_calls: int = 0
    drain_calls: int = 0
    allocations: int = 0
    views_created: int = 0
    model: LatencyModel = field(default_factory=LatencyModel)

    def modelled_ns(self) -> float:
        """Modelled NVM time for the traffic recorded so far.

        Reads are charged per line touched, writes per line flushed
        (stores that never reach a flush stay in the cache and cost DRAM
        time only, which we fold into measured wall time).
        """
        read_lines = self.bytes_read / 64.0
        write_cost = (
            self.lines_flushed
            * self.model.write_ns_per_line
            * self.model.write_multiplier
        )
        return (
            read_lines * self.model.read_ns_per_line
            + write_cost
            + self.drain_calls * self.model.drain_ns
        )

    def reset(self) -> None:
        """Zero all counters (the latency model is kept)."""
        self.bytes_read = 0
        self.bytes_written = 0
        self.lines_flushed = 0
        self.flush_calls = 0
        self.drain_calls = 0
        self.allocations = 0
        self.views_created = 0

    def snapshot(self) -> dict:
        """Return counters as a plain dict (for reports)."""
        return {
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "lines_flushed": self.lines_flushed,
            "flush_calls": self.flush_calls,
            "drain_calls": self.drain_calls,
            "allocations": self.allocations,
            "views_created": self.views_created,
            "modelled_ns": self.modelled_ns(),
        }


def busy_wait_ns(duration_ns: int) -> None:
    """Spin for ``duration_ns`` nanoseconds.

    Busy-waiting (rather than ``time.sleep``) mirrors how NVM store
    latency stalls a CPU pipeline and avoids the scheduler's ~50 us
    minimum sleep granularity.
    """
    if duration_ns <= 0:
        return
    deadline = time.perf_counter_ns() + duration_ns
    while time.perf_counter_ns() < deadline:
        pass
