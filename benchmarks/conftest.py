"""Shared infrastructure for the experiment benchmarks (E1–E8).

Each experiment prints the rows/series its paper figure or table
reports. Because pytest captures stdout, experiments register their
tables through the ``experiment_report`` fixture; the collected output
is printed in the terminal summary (always visible) and appended to
``benchmarks/results.txt``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import DurabilityMode, Engine, EngineConfig, open_engine
from repro.query.predicate import Eq
from repro.workloads.generator import WideRowGenerator

_REPORTS: list[str] = []

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")


@pytest.fixture
def experiment_report():
    """Collector: call with a formatted table/series string."""

    def add(text: str) -> None:
        _REPORTS.append(text)

    return add


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "experiment results")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    with open(RESULTS_PATH, "a") as f:
        f.write(f"\n===== run at {time.strftime('%Y-%m-%d %H:%M:%S')} =====\n")
        for text in _REPORTS:
            f.write("\n" + text + "\n")


# ----------------------------------------------------------------------
# Database builders
# ----------------------------------------------------------------------

SMALL_EXTENT = 8 * 1024 * 1024


def config_for(mode: DurabilityMode, **overrides) -> EngineConfig:
    defaults = dict(mode=mode, extent_size=SMALL_EXTENT)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def build_wide_db(
    path: str,
    mode: DurabilityMode,
    rows: int,
    checkpoint: bool = False,
    seed: int = 11,
    crash: bool = False,
    index: bool = False,
    **overrides,
) -> EngineConfig:
    """Create an engine, populate it with wide rows, and close (or
    crash) it; ``shards=N`` among the overrides makes it sharded, and
    ``index`` indexes ``id`` and merges the rows into main.

    Returns the config to reopen it with.
    """
    cfg = config_for(mode, **overrides)
    db = open_engine(path, cfg)
    gen = WideRowGenerator(seed=seed)
    schema = {col.name: col.dtype for col in gen.schema}
    db.create_table("wide", schema)
    batch = 5000
    remaining = rows
    while remaining > 0:
        db.bulk_insert("wide", gen.rows(min(batch, remaining)))
        remaining -= batch
    if index:
        db.create_index("wide", "id")
        db.merge("wide")
    if checkpoint and mode is DurabilityMode.LOG:
        db.checkpoint()
    if crash:
        db.crash(seed=3)
    else:
        db.close()
    return cfg


def time_first_indexed_read(path: str, cfg: EngineConfig, key: int) -> float:
    """Best of three reopens: wall time of the first indexed point read
    on ``wide`` after the reopen (the engine usable again, not just open)."""
    best = float("inf")
    for _ in range(3):
        db = open_engine(path, cfg)
        start = time.perf_counter()
        assert len(db.query("wide", Eq("id", key)).rows()) == 1
        best = min(best, time.perf_counter() - start)
        db.close()
    return best


def time_restart(path: str, cfg: EngineConfig) -> tuple[float, Engine]:
    """Wall time of a cold open (recovery included); caller closes."""
    start = time.perf_counter()
    db = open_engine(path, cfg)
    elapsed = time.perf_counter() - start
    return elapsed, db
