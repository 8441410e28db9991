"""E8 — merge cost vs delta size (supporting ablation).

The instant-restart design leans on keeping the delta small: the
volatile delta-dictionary lookups are rebuilt from it (E7), and scans
slow down as it grows (E5). The merge is the tool that bounds it — this
experiment measures what that tool costs.

Expected shape: merge duration grows roughly linearly with the number of
rows merged (main + delta survivors), and the NVM backend pays a
constant factor over DRAM for flushing the new generation.
"""

from __future__ import annotations

import tempfile
import time

from repro.core import Database, DurabilityMode

from benchmarks.harness import config_for
from benchmarks.workloads import RowGenerator

TITLE = "E8: merge cost vs rows merged"
SERIES = ("rows_merged", ["nvm_merge_s"])


def _merge(mode: DurabilityMode, delta_rows: int) -> tuple[float, int]:
    """Seconds to merge ``delta_rows`` delta rows, and main's rows after."""
    with tempfile.TemporaryDirectory(prefix="e8-") as path:
        db = Database(path, config_for(mode))
        db.create_table("events", RowGenerator.SCHEMA)
        db.bulk_insert("events", RowGenerator(seed=51).rows(delta_rows))
        start = time.perf_counter()
        db.merge("events")
        elapsed = time.perf_counter() - start
        main_rows = db.table("events").main_row_count
        db.close()
    return elapsed, main_rows


def run(quick: bool) -> list[dict]:
    rows_out = []
    for delta_rows in [2_500, 10_000] if quick else [5_000, 10_000, 20_000, 40_000]:
        nvm_s, nvm_main = _merge(DurabilityMode.NVM, delta_rows)
        dram_s, dram_main = _merge(DurabilityMode.NONE, delta_rows)
        rows_out.append(
            {
                "rows_merged": delta_rows,
                "nvm_merge_s": nvm_s,
                "dram_merge_s": dram_s,
                "nvm_overhead_x": nvm_s / dram_s,
                "nvm_us_per_row": nvm_s / delta_rows * 1e6,
                "main_rows": min(nvm_main, dram_main),
            }
        )
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    for row in rows:
        assert row["main_rows"] == row["rows_merged"]
    # NVM pays a bounded constant factor over DRAM.
    assert max(row["nvm_overhead_x"] for row in rows) < 20
    # Merge cost grows with data (roughly linear: 8x rows -> >= 3x time;
    # quick's 4x is too close to that bar to hold on every run).
    assert quick or rows[-1]["nvm_merge_s"] > rows[0]["nvm_merge_s"] * 3
