"""What the experiments share: engine builders, timers, and the
plain-text tables each experiment prints.

Each experiment prints the rows its reconstructed figure or table
reports, so the paper-vs-measured comparison in EXPERIMENTS.md is a
matter of reading the output.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Callable, Optional, Sequence

from repro.core import Database, DurabilityMode, EngineConfig
from repro.storage.types import DataType

from benchmarks.workloads import WideRowGenerator

SMALL_EXTENT = 8 * 1024 * 1024

#: The modelled WAL device: every LOG fsync also sleeps this long (a
#: GIL-releasing sleep, ``wal_fsync_delay_s``). On a fast local disk an
#: fsync costs about what one Python flush/drain does, so without it a
#: synchronous commit would measure the host's disk cache, not the cost
#: of waiting for stable storage that the log-based design pays.
WAL_FSYNC_S = 0.003

ORDERS_SCHEMA = {
    "id": DataType.INT64,
    "name": DataType.STRING,
    "qty": DataType.INT64,
    "score": DataType.FLOAT64,
}


def order_rows(n: int) -> list[dict]:
    """Deterministic ``ORDERS_SCHEMA`` rows; 64 distinct names."""
    return [
        {"id": i, "name": f"sku-{i % 64}", "qty": i % 1000, "score": i * 0.25}
        for i in range(n)
    ]


def config_for(mode: DurabilityMode, **overrides) -> EngineConfig:
    return EngineConfig(**{"mode": mode, "extent_size": SMALL_EXTENT, **overrides})


def build_wide(
    path: str,
    mode: DurabilityMode,
    rows: int,
    *,
    checkpoint: bool = False,
    index: bool = False,
    merge: bool = False,
    crash: bool = False,
) -> EngineConfig:
    """Create an engine of ``rows`` wide rows and close (or crash) it.

    ``index`` indexes ``id``, ``merge`` moves the rows into main, and
    ``checkpoint`` (LOG only) checkpoints last. Returns the config to
    reopen it with.
    """
    cfg = config_for(mode)
    db = Database(path, cfg)
    gen = WideRowGenerator(seed=11)
    db.create_table("wide", {col.name: col.dtype for col in gen.schema})
    for lo in range(0, rows, 5000):
        db.bulk_insert("wide", gen.rows(min(5000, rows - lo)))
    if index:
        db.create_index("wide", "id")
    if merge:
        db.merge("wide")
    if checkpoint:
        db.checkpoint()
    if crash:
        db.crash(seed=3)
    else:
        db.close()
    return cfg


def timed_open(path: str, cfg: EngineConfig) -> tuple[float, Database]:
    """Wall time of a cold open (recovery included); the caller closes."""
    start = time.perf_counter()
    db = Database(path, cfg)
    return time.perf_counter() - start, db


def median_of(fn: Callable[[], float], trials: int = 3) -> float:
    """Median of ``trials`` runs of a function returning a measurement."""
    return statistics.median(fn() for _ in range(trials))


def p99(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[dict], columns: Optional[Sequence[str]] = None, title: str = ""
) -> str:
    """Render rows of dicts as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(dict.fromkeys(key for row in rows for key in row))
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = [title] if title else []
    lines.append(" | ".join(col.ljust(w) for col, w in zip(columns, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence) -> str:
    """Render one figure series as ``name: (x, y) ...`` pairs."""
    pairs = ", ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def render(entry, rows: Sequence[dict]) -> str:
    """An experiment's tables, then its figure series.

    Rows print under ``entry.TITLE``; a run of rows carrying a
    ``"table"`` key prints as its own table under that title, and a
    row's ``"span_tree"`` (a rendered recovery span) prints after the
    tables. ``entry.SERIES``, if present, is ``(x column, [y columns])``.
    """
    parts, hidden = [], ("table", "span_tree")
    for title, group in itertools.groupby(
        rows, key=lambda row: row.get("table", entry.TITLE)
    ):
        shown = [{k: v for k, v in row.items() if k not in hidden} for row in group]
        parts.append(format_table(shown, title=title))
    parts += [row["span_tree"] for row in rows if "span_tree" in row]
    x, ys = getattr(entry, "SERIES", (None, ()))
    for y in ys:
        points = [row for row in rows if y in row]
        parts.append(
            format_series(y, [r[x] for r in points], [r[y] for r in points])
        )
    return "\n".join(parts)
