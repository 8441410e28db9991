"""Host-speed calibration: report the operation stream's times at a
reference host speed.

The 2-core containers this benchmark runs on share their host: the same
pure-Python loop runs anywhere between 0.6× and 1.0× of its best speed,
drifting over seconds to minutes, and ``process_time`` drifts with it
(the guest cannot see the contention). Ten-second measurements taken
minutes apart therefore differ by 15–25% with no change to the code —
as much as the widest regression bound the ledger may set.

So a :class:`SpeedMeter` runs a fixed, engine-independent *kernel*
(dict, tuple, string and small-numpy work — the instruction mix of the
engine's Python layers, but none of its code) between blocks of timed
operations. The kernel's duration gives the host's speed at that moment;
a block's speed ``factor`` is ``REFERENCE_S`` ÷ the median kernel
duration of the samples around it (the two that bracket it plus one more
on each side, which filters the kernel's own jitter while following the
drift). CPU time is multiplied by the factor; off-CPU time (fsync, socket
waits) is kept as measured:

    reported = min(cpu, wall) × factor + max(0, wall − cpu)

Only the operation stream is treated this way. Set-up and restart are
dominated by large numpy operations, page faults and process start-up,
which do not follow the kernel's speed (measured: scaling them made
their run-to-run spread worse, 0.03–0.12 raw against 0.03–0.33 scaled);
they are reported as measured. Raw values of everything are kept in the
result file. The kernel never changes with the engine, so a change in
the engine moves a reported value exactly as it moves the raw one.
"""

from __future__ import annotations

import statistics
from time import perf_counter, process_time

import numpy as np

#: Duration of one kernel pass on the reference container at its usual
#: speed. Only fixes the scale of the reported times.
REFERENCE_S = 0.0003

_LOOKUPS = {i: (i, "g%d" % (i % 97)) for i in range(50_000)}
_KEYS = [(i * 7919) % 50_000 for i in range(400)]
_SMALL = np.arange(2048, dtype=np.int64)
_BIG = np.arange(1_000_000, dtype=np.int64)
_GATHER = (np.arange(4096, dtype=np.int64) * 7919) % 1_000_000


def _once() -> float:
    t0 = perf_counter()
    scratch = {}
    for i in range(600):
        scratch[i & 255] = (i, "g%d" % (i % 97))
    total = 0
    for key in _KEYS:
        total += _LOOKUPS[key][0]
    np.unique(_SMALL % 97)
    _SMALL.tolist()
    _BIG[_GATHER].sum()
    return perf_counter() - t0


def kernel() -> float:
    """Seconds one kernel pass takes right now.

    One discarded pass first (whatever ran before has evicted the
    kernel's data from the caches), then the best of three, so a single
    preemption does not pass for a slow host.
    """
    _once()
    return min(_once(), _once(), _once())


def reported(wall: float, cpu: float, factor: float) -> float:
    """``wall`` seconds at reference host speed (see module docstring)."""
    on_cpu = min(cpu, wall)
    return on_cpu * factor + (wall - on_cpu)


class SpeedMeter:
    """Kernel samples taken at block boundaries of an operation stream.

    The time spent sampling is outside every block: the clock stops
    while the kernel runs.
    """

    def __init__(self) -> None:
        self._position: list[int] = []  # stream position of each mark
        self._begin: list[float] = []  # wall clock entering a mark
        self._end: list[float] = []  # ... and leaving it
        self._cpu_begin: list[float] = []
        self._cpu_end: list[float] = []
        self._kernel_s: list[float] = []

    def mark(self, position: int) -> None:
        """Sample the host speed before the operation at ``position``
        (and once after the last one): a block boundary."""
        self._position.append(position)
        self._begin.append(perf_counter())
        self._cpu_begin.append(process_time())
        self._kernel_s.append(kernel())
        self._cpu_end.append(process_time())
        self._end.append(perf_counter())

    def stream(self, first: int, last: int, wall_latency, cpu_latency=None) -> dict:
        """Stream positions ``[first, last)`` at reference host speed.

        ``wall_latency`` / ``cpu_latency`` hold one value per stream
        position; ``cpu_latency=None`` counts all wall time as CPU time —
        for a client whose waiting *is* another process's computing.
        Returns the per-block record, the blocks' summed reported and raw
        seconds, the per-operation reported latencies, and the median
        speed factor.
        """
        blocks = []
        factor = np.ones(last)
        for k in range(len(self._position) - 1):
            lo, hi = self._position[k], self._position[k + 1]
            if lo < first or hi > last or hi <= lo:
                continue
            wall = self._begin[k + 1] - self._end[k]
            cpu = wall if cpu_latency is None else self._cpu_begin[k + 1] - self._cpu_end[k]
            # The bracketing samples plus one more on each side.
            nearby = self._kernel_s[max(0, k - 1) : k + 3]
            speed = REFERENCE_S / statistics.median(nearby)
            factor[lo:hi] = speed
            blocks.append(
                {
                    "ops": hi - lo,
                    "wall_s": wall,
                    "factor": speed,
                    "reported_s": reported(wall, cpu, speed),
                }
            )
        raw = np.asarray(wall_latency, dtype=np.float64)[first:last]
        on_cpu = raw
        if cpu_latency is not None:
            on_cpu = np.minimum(np.asarray(cpu_latency, dtype=np.float64)[first:last], raw)
        return {
            "blocks": blocks,
            "reported_s": sum(b["reported_s"] for b in blocks),
            "wall_s": sum(b["wall_s"] for b in blocks),
            "latency": on_cpu * factor[first:last] + (raw - on_cpu),
            "raw_latency": raw,
            "host_speed": statistics.median(b["factor"] for b in blocks),
        }
