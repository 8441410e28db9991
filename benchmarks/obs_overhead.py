"""OBS — observability overhead: always-on telemetry vs a disabled registry.

Acceptance check for the observability subsystem: the E10-style bulk
insert workload (NVM mode, the mode with the highest persistence-event
rate) must not regress by more than ~5% with the default metrics
registry enabled, compared against ``MetricsRegistry(enabled=False)``.

Enabled and disabled runs are interleaved in pairs and compared by the
median of pairwise ratios, which cancels the machine drift that
dominates wall-clock A/B comparisons at this timescale. The bar is
looser than the 5% target so that it holds on noisy shared runners;
the measured median is the table's last row.
"""

from __future__ import annotations

import statistics
import tempfile
import time

from repro.core import Database, DurabilityMode
from repro.obs import MetricsRegistry, set_registry

from benchmarks.harness import ORDERS_SCHEMA, config_for, order_rows

TITLE = "OBS: metrics-enabled/disabled insert throughput (NVM, batch 64)"

BATCH = 64


def _rows_per_second(rows: list[dict], enabled: bool) -> float:
    previous = set_registry(MetricsRegistry(enabled=enabled))
    try:
        with tempfile.TemporaryDirectory(prefix="obs-") as path:
            db = Database(path, config_for(DurabilityMode.NVM))
            db.create_table("orders", ORDERS_SCHEMA)
            start = time.perf_counter()
            for lo in range(0, len(rows), BATCH):
                db.insert_many("orders", rows[lo : lo + BATCH])
            rate = len(rows) / (time.perf_counter() - start)
            db.close()
    finally:
        set_registry(previous)
    return rate


def run(quick: bool) -> list[dict]:
    rows = order_rows(2_000 if quick else 4_000)
    _rows_per_second(rows, True)  # warm up caches
    _rows_per_second(rows, False)
    rows_out = []
    for pair in range(3 if quick else 7):
        enabled = _rows_per_second(rows, True)
        disabled = _rows_per_second(rows, False)
        rows_out.append(
            {
                "pair": pair,
                "enabled_rows_s": enabled,
                "disabled_rows_s": disabled,
                "ratio": enabled / disabled,
            }
        )
    ratio = statistics.median(row["ratio"] for row in rows_out)
    rows_out.append({"pair": "median", "ratio": ratio})
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    # Target is <= 5% median overhead (measured ~3%).
    assert rows[-1]["ratio"] > 0.85
