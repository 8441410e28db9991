"""Structured timing report for a recovery run (experiment E2).

Each report is backed by a real :class:`~repro.obs.trace.Span` tree:
the driver wraps its whole ``open`` in the report's root span and each
recovery phase is a child span, so ``phases`` / ``total_seconds`` are
views over measured spans rather than hand-rolled timers, and the full
tree (with nesting and per-phase offsets) is available for rendering
via ``report.span``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import Span, trace_phase

_COUNTERS = (
    "rows_recovered",
    "txns_rolled_back",
    "txns_rolled_forward",
    "log_records_replayed",
    "merges_replayed",
    "checkpoint_bytes",
)


@dataclass
class RecoveryReport:
    """Per-phase durations and counters for one recovery.

    ``span`` is the root of the phase tree; its direct children are the
    recovery phases. The driver that owns the recovery enters the root
    span around the whole procedure, so ``total_seconds`` is the
    measured wall time of ``open`` once recovery finishes (and the sum
    of phase durations until then).

    A multi-shard engine recovers its shards concurrently and reports
    one of these too: ``shard_reports`` carries the children (empty for
    a single-shard recovery), ``span`` is the fan-out's own span with
    each shard's tree grafted under it — so ``total_seconds`` is the
    *wall clock* of the parallel recovery — and the counters are sums
    over the shards (every shard holds every table, so ``tables`` is
    not).
    """

    mode: str
    span: Span = field(default_factory=lambda: Span("recovery"))
    tables: int = 0
    rows_recovered: int = 0
    txns_rolled_back: int = 0  # NVM only: the LOG engine's replay is REDO-only
    txns_rolled_forward: int = 0
    log_records_replayed: int = 0
    merges_replayed: int = 0
    checkpoint_bytes: int = 0
    shard_reports: list["RecoveryReport"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.span.name == "recovery":
            self.span.name = f"recovery:{self.mode}"
        if self.shard_reports:
            self.tables = max(r.tables for r in self.shard_reports)
            for name in _COUNTERS:
                setattr(self, name, sum(getattr(r, name) for r in self.shard_reports))

    @property
    def shards(self) -> int:
        return len(self.shard_reports) or 1

    @property
    def phases(self) -> list[tuple[str, float]]:
        """``(phase, seconds)`` pairs; a parallel recovery sums each
        phase across its shards (first-seen order)."""
        if not self.shard_reports:
            return self.span.phase_items()
        totals: dict[str, float] = {}
        for report in self.shard_reports:
            for name, seconds in report.phases:
                totals[name] = totals.get(name, 0.0) + seconds
        return list(totals.items())

    @property
    def total_seconds(self) -> float:
        if self.span.finished:
            return self.span.duration_s
        return self.span.child_seconds()

    @property
    def serial_seconds(self) -> float:
        """What a one-thread recovery of the same shards would have
        cost: the sum of per-shard totals."""
        if not self.shard_reports:
            return self.total_seconds
        return sum(r.total_seconds for r in self.shard_reports)

    @property
    def parallel_speedup(self) -> float:
        if self.total_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.total_seconds

    def phase_seconds(self, name: str) -> float:
        return sum(seconds for phase, seconds in self.phases if phase == name)

    def phase(self, name: str, **meta):
        """Open a child span for one recovery phase (context manager)."""
        return trace_phase(name, parent=self.span, **meta)

    def as_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "total_seconds": self.total_seconds,
            "phases": dict(self.phases),
            "span": self.span.as_dict(),
            "tables": self.tables,
            "shards": self.shards,
            "serial_seconds": self.serial_seconds,
            "parallel_speedup": self.parallel_speedup,
            "per_shard": [r.as_dict() for r in self.shard_reports],
        }
        out.update((name, getattr(self, name)) for name in _COUNTERS)
        return out
