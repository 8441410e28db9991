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

import tempfile
import time

from repro.core import Database, DurabilityMode
from repro.obs import get_registry
from repro.query.predicate import Eq

from benchmarks.harness import config_for, timed_open
from benchmarks.workloads import RowGenerator

TITLE = "E7: cost of the volatile delta-index catch-up (NVM)"


def _timed_count(db, key: int) -> tuple[float, int]:
    start = time.perf_counter()
    count = db.query("events", Eq("id", key)).count
    return (time.perf_counter() - start) * 1e3, count


def run(quick: bool) -> list[dict]:
    caught_up = get_registry().counter("index_catchup_rows_total")
    rows_out = []
    for rows in [2_000] if quick else [5_000, 20_000]:
        with tempfile.TemporaryDirectory(prefix="e7-") as path:
            cfg = config_for(DurabilityMode.NVM)
            db = Database(path, cfg)
            db.create_table("events", RowGenerator.SCHEMA)
            db.create_index("events", "id")
            start = time.perf_counter()
            db.bulk_insert("events", RowGenerator(seed=31).rows(rows))
            load_s = time.perf_counter() - start
            db.close()

            restart_s, db = timed_open(path, cfg)
            before = caught_up.value
            first_ms, hits = _timed_count(db, rows // 2)
            first_caught_up = caught_up.value - before
            second_ms, _ = _timed_count(db, rows // 3)
            db.close()
        rows_out.append(
            {
                "delta_rows": rows,
                "load_s": load_s,
                "restart_s": restart_s,
                "first_query_ms": first_ms,
                "first_hits": hits,
                "caught_up_rows": first_caught_up,
                "second_caught_up": caught_up.value - before - first_caught_up,
                "second_query_ms": second_ms,
            }
        )
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    for row in rows:
        # The first query catches up the whole delta, the second nothing.
        assert row["first_hits"] == 1
        assert row["caught_up_rows"] == row["delta_rows"]
        assert row["second_caught_up"] == 0
        # Warm (second) queries are fast.
        assert row["second_query_ms"] < row["first_query_ms"] + 5.0
    # The catch-up grows with the delta (quick runs one size).
    assert quick or rows[-1]["first_query_ms"] > rows[0]["first_query_ms"]
