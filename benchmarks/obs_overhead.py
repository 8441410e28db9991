"""OBS — observability overhead: always-on telemetry vs a disabled registry.

Acceptance check for the observability subsystem: the E10-style bulk
insert workload (NVM mode, the mode with the highest persistence-event
rate) must not regress by more than ~5% with the default metrics
registry enabled, compared against ``MetricsRegistry(enabled=False)``.

Two engines run side by side, one opened under each registry, and every
batch goes to both in turn (the first of the two alternating), with the
default registry switched to the engine's own before its batch. Each
such pair of batches ran under the same host conditions, so its time
ratio is free of the machine drift and the stalls that decided whole
~20 ms runs timed one after the other; a run's ratio is the median over
its batch pairs, and the table's last row is the median over runs. The
bar is looser than the 5% target so that it holds on noisy shared
runners.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

from repro.core import Database, DurabilityMode
from repro.obs import MetricsRegistry, set_registry

from benchmarks.harness import ORDERS_SCHEMA, config_for, order_rows

TITLE = "OBS: metrics-enabled/disabled insert throughput (NVM, batch 64)"

BATCH = 64
ROWS = 10_000


def _run(rows: list[dict]) -> dict:
    """One run: ``rows`` into an enabled and a disabled engine, batch by
    batch in turn."""
    registries = [MetricsRegistry(enabled=True), MetricsRegistry(enabled=False)]
    spent: list[list[float]] = [[], []]
    previous = set_registry(registries[0])
    try:
        with tempfile.TemporaryDirectory(prefix="obs-") as path:
            dbs = []
            for side, registry in enumerate(registries):
                set_registry(registry)
                config = config_for(DurabilityMode.NVM)
                db = Database(os.path.join(path, str(side)), config)
                db.create_table("orders", ORDERS_SCHEMA)
                dbs.append(db)
            for k, lo in enumerate(range(0, len(rows), BATCH)):
                for side in (k % 2, 1 - k % 2):
                    set_registry(registries[side])
                    start = time.perf_counter()
                    dbs[side].insert_many("orders", rows[lo : lo + BATCH])
                    spent[side].append(time.perf_counter() - start)
            for db, registry in zip(dbs, registries):
                set_registry(registry)
                db.close()
    finally:
        set_registry(previous)
    enabled, disabled = spent
    return {
        "enabled_rows_s": len(rows) / sum(enabled),
        "disabled_rows_s": len(rows) / sum(disabled),
        "ratio": statistics.median(d / e for e, d in zip(enabled, disabled)),
    }


def run(quick: bool) -> list[dict]:
    rows = order_rows(ROWS)
    _run(rows[: ROWS // 10])  # warm up caches
    rows_out = [{"run": n, **_run(rows)} for n in range(5 if quick else 9)]
    ratio = statistics.median(row["ratio"] for row in rows_out)
    rows_out.append({"run": "median", "ratio": ratio})
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    # Target is <= 5% median overhead (measured 4-5% on a shared 2-core host).
    assert rows[-1]["ratio"] > 0.85
