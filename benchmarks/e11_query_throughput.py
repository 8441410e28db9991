"""E11 — query throughput: the vectorized read path.

The read-side counterpart of E10. Three operators, scalar against
vectorized, at 10^5–10^6 rows (~90% merged main, 10% delta, 16 groups):

* **grouped aggregation** — the code-space kernels (bincount over
  dictionary codes, values gathered through them) against the scalar
  fold over python lists. The headline claim: ≥5× at 10^6 rows.
* **hash join** — the array-backed code join with late materialization
  (only matched rows decode) against the row-dict build/probe loop:
  ≥3× at 10^6 rows.
* **filtered scan** — repeated scans with the MVCC visibility cache
  warm vs the first (cold) scan; predicate evaluation was already
  vectorized, so the contrast isolates the begin/end copy cost.

A second table (E11b) proves the NVM claim behind the visibility
cache: a repeated read-only scan performs **zero** modelled NVM reads
(``NvmStats.bytes_read == 0``) and the ``obs`` hit/miss counters
confirm the cache served it.
"""

from __future__ import annotations

import tempfile
import time

from repro.core import Database, DurabilityMode
from repro.obs import get_registry
from repro.query.aggregate import aggregate, aggregate_scalar
from repro.query.join import hash_join, hash_join_scalar
from repro.query.predicate import Between
from repro.storage.types import DataType

from benchmarks.harness import config_for

TITLE = "E11: read throughput, scalar vs vectorized (rows/s)"

FACT_SCHEMA = {
    "id": DataType.INT64,
    "grade": DataType.STRING,
    "qty": DataType.INT64,
    "score": DataType.FLOAT64,
}


def _fact_rows(n: int, offset: int = 0) -> list[dict]:
    return [
        {
            "id": offset + i,
            "grade": f"g{(offset + i) % 16}",
            "qty": (offset + i) % 1000,
            "score": float((offset + i) % 997) * 0.5,
        }
        for i in range(n)
    ]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _sweep_row(n: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="e11-") as path:
        db = Database(path, config_for(DurabilityMode.NONE))
        db.create_table("fact", FACT_SCHEMA)
        merged = (n * 9 // 10 // 10_000) * 10_000
        for lo in range(0, merged, 100_000):
            db.bulk_insert("fact", _fact_rows(min(100_000, merged - lo), lo))
        db.merge("fact")
        for lo in range(merged, n, 100_000):
            db.bulk_insert("fact", _fact_rows(min(100_000, n - lo), lo))
        db.create_table("dim", {"id": DataType.INT64, "label": DataType.STRING})
        db.bulk_insert(
            "dim", [{"id": i, "label": f"d{i % 7}"} for i in range(0, n // 10, 10)]
        )

        result = db.query("fact")

        def grouped_sum(operator):
            return operator(result, "sum", "score", group_by="grade")

        agg_scalar = _timed(lambda: grouped_sum(aggregate_scalar))
        agg_vec = _timed(lambda: grouped_sum(aggregate))
        agg_equal = grouped_sum(aggregate) == grouped_sum(aggregate_scalar)

        left, right = db.query("fact"), db.query("dim")
        join_scalar = _timed(lambda: hash_join_scalar(left, right, "id"))
        join_vec = _timed(lambda: hash_join(left, right, "id"))

        predicate = Between("qty", 100, 599)
        scan_cold = _timed(lambda: db.query("fact", predicate))
        scan_warm = min(_timed(lambda: db.query("fact", predicate)) for _ in range(3))
        db.close()
    return {
        "rows": n,
        "agg_scalar_rows_s": n / agg_scalar,
        "agg_vec_rows_s": n / agg_vec,
        "agg_speedup": agg_scalar / agg_vec,
        "agg_equal": agg_equal,
        "join_scalar_rows_s": n / join_scalar,
        "join_vec_rows_s": n / join_vec,
        "join_speedup": join_scalar / join_vec,
        "scan_cold_rows_s": n / scan_cold,
        "scan_warm_rows_s": n / scan_warm,
        "scan_warm_speedup": scan_cold / scan_warm,
    }


def _cache_rows() -> list[dict]:
    """E11b: NVM read traffic of a cold and a repeated read-only scan."""
    with tempfile.TemporaryDirectory(prefix="e11b-") as path:
        db = Database(path, config_for(DurabilityMode.NVM))
        db.create_table("fact", FACT_SCHEMA)
        db.bulk_insert("fact", _fact_rows(20_000))
        db.merge("fact")
        db.bulk_insert("fact", _fact_rows(2_000, 20_000))
        stats = db._pool.stats
        predicate = Between("qty", 100, 599)
        rows_out = []
        for scan in ("first (cold)", "repeat (warm)"):
            stats.reset()
            count = aggregate(db.query("fact", predicate), "count")
            counters = get_registry().counters_snapshot()
            rows_out.append(
                {
                    "table": "E11b: NVM read traffic, repeated read-only scan",
                    "scan": scan,
                    "count": count,
                    "nvm_bytes_read": stats.bytes_read,
                    "views_created": stats.views_created,
                    "cache_hits": counters.get("mvcc_cache_hits_total", 0),
                    "cache_misses": counters.get("mvcc_cache_misses_total", 0),
                }
            )
        db.close()
    return rows_out


def run(quick: bool) -> list[dict]:
    sizes = [100_000] if quick else [100_000, 1_000_000]
    return [_sweep_row(n) for n in sizes] + _cache_rows()


def check(rows: list[dict], quick: bool) -> None:
    *sweep, cold, warm = rows
    assert all(row["agg_equal"] for row in sweep)
    # E11b: the repeat is served by the cache and touches no NVM vector.
    assert warm["count"] == cold["count"]
    assert warm["nvm_bytes_read"] == 0 and warm["views_created"] == 0
    assert warm["cache_hits"] > cold["cache_hits"]
    assert warm["cache_misses"] == cold["cache_misses"]
    # Headline claims at the largest size (10^6 rows at full size):
    # code-space grouped aggregation beats the scalar fold by >= 5x, and
    # the array join (only matched rows ever decode) by >= 3x.
    assert sweep[-1]["agg_speedup"] >= 5.0
    assert sweep[-1]["join_speedup"] >= 3.0
