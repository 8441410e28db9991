"""E5 — scan performance: main vs delta, and the effect of merging.

Reconstructed figure: latency of a range scan as the delta fills up,
then after a merge folds the delta into the read-optimised main.

Expected shape: scan latency grows as the (unsorted-dictionary) delta
fills, because a delta range compares the whole value vector and gathers
a per-code truth over uncompressed codes while a main range is two
binary searches plus a vectorised range test over bit-packed codes; the
merge restores near-empty-delta latency. Index
probes beat full scans for selective predicates in every state.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import median_of
from repro.bench.reporting import format_table
from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.query.predicate import Between, Eq
from repro.workloads.generator import RowGenerator

from benchmarks.conftest import config_for

MAIN_ROWS = 40_000
DELTA_STEPS = [0, 10_000, 30_000]


def _scan_seconds(db, predicate) -> float:
    def once():
        start = time.perf_counter()
        db.query("events", predicate).count
        return time.perf_counter() - start

    return median_of(once, trials=5)


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("e5") / "db")
    db = Database(path, config_for(DurabilityMode.NVM))
    gen = RowGenerator(seed=21)
    db.create_table("events", RowGenerator.SCHEMA)
    db.create_index("events", "id")
    db.bulk_insert("events", gen.rows(MAIN_ROWS))
    db.merge("events")
    yield db, gen
    db.close()


def test_e5_scan_latency_and_merge(populated, experiment_report, benchmark):
    db, gen = populated
    predicate = Between("quantity", 10, 40)
    rows_out = []
    filled = 0
    for target in DELTA_STEPS:
        if target > filled:
            db.bulk_insert("events", gen.rows(target - filled))
            filled = target
        rows_out.append(
            {
                "state": f"delta={target}",
                "range_scan_ms": _scan_seconds(db, predicate) * 1e3,
                "point_index_ms": _scan_seconds(db, Eq("id", 17)) * 1e3,
                "visible_rows": db.query("events").count,
            }
        )
    before_merge = rows_out[-1]["range_scan_ms"]
    db.merge("events")
    rows_out.append(
        {
            "state": "after merge",
            "range_scan_ms": _scan_seconds(db, predicate) * 1e3,
            "point_index_ms": _scan_seconds(db, Eq("id", 17)) * 1e3,
            "visible_rows": db.query("events").count,
        }
    )

    experiment_report(
        format_table(
            rows_out,
            title=f"E5: scan latency vs delta fill (main={MAIN_ROWS} rows)",
        )
    )

    # Shape assertions.
    empty_delta = rows_out[0]["range_scan_ms"]
    full_delta = before_merge
    after_merge = rows_out[-1]["range_scan_ms"]
    assert full_delta > empty_delta  # delta slows scans down
    assert after_merge < full_delta  # merge restores speed
    # Index probes stay far below range scans throughout.
    assert all(r["point_index_ms"] < r["range_scan_ms"] for r in rows_out)

    benchmark(lambda: db.query("events", predicate).count)


def test_e5_compression_ratio(populated, experiment_report, benchmark):
    """Side table: dictionary compression of the main partition."""
    db, _gen = populated
    table = db.table("events")
    packed = table.main.compressed_bytes()
    uncompressed = table.main.row_count * len(table.schema) * 8
    experiment_report(
        format_table(
            [
                {
                    "main_rows": table.main.row_count,
                    "packed_bytes": packed,
                    "plain8B_bytes": uncompressed,
                    "compression_x": uncompressed / max(packed, 1),
                }
            ],
            title="E5b: attribute-vector compression (main)",
        )
    )
    assert packed < uncompressed
    benchmark(lambda: table.main.compressed_bytes())
