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

    def __post_init__(self) -> None:
        if self.span.name == "recovery":
            self.span.name = f"recovery:{self.mode}"

    @property
    def phases(self) -> list[tuple[str, float]]:
        """``(phase, seconds)`` pairs in the order they ran."""
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
        out = {
            "mode": self.mode,
            "total_seconds": self.total_seconds,
            "phases": dict(self.phases),
            "span": self.span.as_dict(),
            "tables": self.tables,
        }
        out.update((name, getattr(self, name)) for name in _COUNTERS)
        return out
