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


@dataclass
class RecoveryReport:
    """Per-phase durations and counters for one recovery.

    ``span`` is the root of the phase tree; its direct children are the
    recovery phases. The driver that owns the recovery enters the root
    span around the whole procedure, so ``total_seconds`` is the
    measured wall time of ``open`` once recovery finishes (and the sum
    of phase durations until then).
    """

    mode: str
    span: Span = field(default_factory=lambda: Span("recovery"))
    tables: int = 0
    rows_recovered: int = 0
    txns_rolled_back: int = 0
    txns_rolled_forward: int = 0
    log_records_replayed: int = 0
    merges_replayed: int = 0
    checkpoint_bytes: int = 0

    def __post_init__(self) -> None:
        if self.span.name == "recovery":
            self.span.name = f"recovery:{self.mode}"

    @property
    def phases(self) -> list[tuple[str, float]]:
        return self.span.phase_items()

    @property
    def total_seconds(self) -> float:
        if self.span.finished:
            return self.span.duration_s
        return self.span.child_seconds()

    def phase_seconds(self, name: str) -> float:
        return sum(seconds for phase, seconds in self.phases if phase == name)

    def phase(self, name: str, **meta):
        """Open a child span for one recovery phase (context manager)."""
        return trace_phase(name, parent=self.span, **meta)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "total_seconds": self.total_seconds,
            "phases": dict(self.phases),
            "span": self.span.as_dict(),
            "tables": self.tables,
            "rows_recovered": self.rows_recovered,
            "txns_rolled_back": self.txns_rolled_back,
            "txns_rolled_forward": self.txns_rolled_forward,
            "log_records_replayed": self.log_records_replayed,
            "merges_replayed": self.merges_replayed,
            "checkpoint_bytes": self.checkpoint_bytes,
        }


@dataclass
class ShardedRecoveryReport:
    """Recovery timings for a multi-shard engine.

    Shards recover concurrently, so the engine-level recovery time is
    the *wall clock* of the parallel fan-out, while ``serial_seconds``
    (the sum of per-shard totals) is what a one-thread recovery of the
    same shards would have cost; their ratio is the parallel speedup.
    ``span`` (when set by the engine) is the fan-out's own span, with
    each shard's recovery tree grafted under it.
    """

    mode: str
    shard_reports: list = field(default_factory=list)
    wall_seconds: float = 0.0
    span: Span | None = None

    @property
    def shards(self) -> int:
        return len(self.shard_reports)

    @property
    def total_seconds(self) -> float:
        return self.wall_seconds

    @property
    def serial_seconds(self) -> float:
        return sum(r.total_seconds for r in self.shard_reports)

    @property
    def parallel_speedup(self) -> float:
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.wall_seconds

    def _sum(self, attr: str) -> int:
        return sum(getattr(r, attr) for r in self.shard_reports)

    @property
    def txns_rolled_back(self) -> int:
        return self._sum("txns_rolled_back")

    @property
    def txns_rolled_forward(self) -> int:
        return self._sum("txns_rolled_forward")

    @property
    def rows_recovered(self) -> int:
        return self._sum("rows_recovered")

    @property
    def log_records_replayed(self) -> int:
        return self._sum("log_records_replayed")

    @property
    def phases(self) -> list[tuple[str, float]]:
        """Per-phase durations summed across shards (first-seen order)."""
        totals: dict[str, float] = {}
        for report in self.shard_reports:
            for name, seconds in report.phases:
                totals[name] = totals.get(name, 0.0) + seconds
        return list(totals.items())

    def phase_seconds(self, name: str) -> float:
        return sum(seconds for phase, seconds in self.phases if phase == name)

    def summary_lines(self) -> list[str]:
        lines = [
            f"{self.shards} shard(s), wall {self.wall_seconds:.4f}s "
            f"(serial {self.serial_seconds:.4f}s)",
            f"parallel speedup: {self.parallel_speedup:.2f}x",
        ]
        lines.extend(
            f"shard-{i:04d}: {r.total_seconds:.4f}s "
            f"({', '.join(f'{n}={s:.4f}s' for n, s in r.phases)})"
            for i, r in enumerate(self.shard_reports)
        )
        return lines

    def as_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "shards": self.shards,
            "wall_seconds": self.wall_seconds,
            "serial_seconds": self.serial_seconds,
            "parallel_speedup": self.parallel_speedup,
            "per_shard": [r.as_dict() for r in self.shard_reports],
        }
        if self.span is not None:
            out["span"] = self.span.as_dict()
        return out

