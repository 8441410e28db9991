"""E7 — cost of the volatile delta-index catch-up.

DESIGN.md decision 4: the main group-key index is on NVM and attaches
with the main generation; the delta index and the delta dictionary's
lookup are volatile. After a restart the first indexed query catches
the delta index up from the delta's codes (one ``argsort``, O(delta)),
and every later query finds it current.

Expected shape: the first post-restart indexed query catches up exactly
the delta's rows, and costs more the larger the delta; the second
catches up nothing and is no slower than the first.
"""

from __future__ import annotations

import time

from repro.bench.reporting import format_table
from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.obs import get_registry
from repro.query.predicate import Eq
from repro.workloads.generator import RowGenerator

from benchmarks.conftest import config_for

DELTA_SIZES = [5_000, 20_000]


def _build(path, rows: int):
    cfg = config_for(DurabilityMode.NVM)
    db = Database(path, cfg)
    gen = RowGenerator(seed=31)
    db.create_table("events", RowGenerator.SCHEMA)
    db.create_index("events", "id")
    start = time.perf_counter()
    db.bulk_insert("events", gen.rows(rows))
    load_seconds = time.perf_counter() - start
    db.close()
    return cfg, load_seconds


def test_e7_volatile_delta_index_catch_up(tmp_path, experiment_report, benchmark):
    caught_up = get_registry().counter("index_catchup_rows_total")
    rows_out = []
    for rows in DELTA_SIZES:
        path = str(tmp_path / f"delta-{rows}")
        cfg, load_seconds = _build(path, rows)

        start = time.perf_counter()
        db = Database(path, cfg)
        restart_seconds = time.perf_counter() - start

        before = caught_up.value
        start = time.perf_counter()
        count = db.query("events", Eq("id", rows // 2)).count
        first_query_ms = (time.perf_counter() - start) * 1e3
        assert count == 1
        first_caught_up = caught_up.value - before

        start = time.perf_counter()
        db.query("events", Eq("id", rows // 3)).count
        second_query_ms = (time.perf_counter() - start) * 1e3
        second_caught_up = caught_up.value - before - first_caught_up
        db.close()

        rows_out.append(
            {
                "delta_rows": rows,
                "load_s": load_seconds,
                "restart_s": restart_seconds,
                "first_query_ms": first_query_ms,
                "caught_up_rows": first_caught_up,
                "second_query_ms": second_query_ms,
            }
        )
        # The first query catches up the whole delta, the second nothing.
        assert first_caught_up == rows
        assert second_caught_up == 0

    experiment_report(
        format_table(
            rows_out, title="E7: cost of the volatile delta-index catch-up (NVM)"
        )
    )

    # The catch-up grows with the delta.
    assert rows_out[-1]["first_query_ms"] > rows_out[0]["first_query_ms"]
    # Warm (second) queries are fast.
    for row in rows_out:
        assert row["second_query_ms"] < row["first_query_ms"] + 5.0

    # Benchmark an insert stream into the indexed table (the upkeep cost).
    path = str(tmp_path / "bench")
    db = Database(path, config_for(DurabilityMode.NVM))
    gen = RowGenerator(seed=41)
    db.create_table("events", RowGenerator.SCHEMA)
    db.create_index("events", "id")
    benchmark.pedantic(
        lambda: db.bulk_insert("events", gen.rows(500)), rounds=3, iterations=1
    )
    db.close()
