"""E13 — online merge: foreground write stalls, blocking vs incremental.

The stop-the-world merge holds the operations gate exclusively for the
whole rebuild, so a foreground insert that arrives mid-merge waits for
the entire fold — its latency *is* the merge duration. The incremental
online merge freezes the delta at a watermark, folds in bounded chunks
concurrently with writers, and pauses them only for the freeze and the
short cutover; the same unlucky insert now waits microseconds.

One writer thread hammers single-row autocommit inserts while the main
thread merges a delta holding the whole dataset, once per variant. The
table reports the p99 latency of the inserts whose lifetime overlaps
the merge window. Headline bar: the online merge cuts that p99 by at
least 10x at 10^6 rows.
"""

from __future__ import annotations

import tempfile
import threading
import time

from repro.core import Database, DurabilityMode
from repro.txn.errors import TransactionConflict

from benchmarks.harness import ORDERS_SCHEMA, config_for, p99

TITLE = "E13: foreground insert p99 during merge, blocking vs online"

_LOAD_BATCH = 100_000


def _make_rows(n: int, offset: int) -> list[dict]:
    return [
        {
            "id": offset + i,
            "name": f"sku-{(offset + i) % 64}",
            "qty": (offset + i) % 1000,
            "score": float((offset + i) % 997) * 0.5,
        }
        for i in range(n)
    ]


def _merge_stall(rows: int, online: bool) -> dict:
    """One merge of ``rows`` delta rows against a hammering writer.

    The latency figures cover the inserts overlapping the merge window;
    ``lost`` counts committed rows missing afterwards (must be 0).
    """
    with tempfile.TemporaryDirectory(prefix="e13-") as path:
        db = Database(
            path, config_for(DurabilityMode.NONE, merge_cutover_timeout_s=30.0)
        )
        db.create_table("orders", ORDERS_SCHEMA)
        for lo in range(0, rows, _LOAD_BATCH):
            db.bulk_insert("orders", _make_rows(min(_LOAD_BATCH, rows - lo), lo))

        samples: list[tuple[float, float]] = []
        stop = threading.Event()
        started = threading.Event()

        def writer() -> None:
            key = rows
            while not stop.is_set():
                t0 = time.perf_counter()
                while True:
                    try:
                        db.insert(
                            "orders", {"id": key, "name": "fg", "qty": 1, "score": 0.0}
                        )
                        break
                    except TransactionConflict:
                        continue  # the cutover moved the rows: retry
                samples.append((t0, time.perf_counter()))
                key += 1
                started.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        if not started.wait(timeout=10.0):
            raise RuntimeError("foreground writer never started")
        merge_start = time.perf_counter()
        db.merge("orders", online=online)
        merge_end = time.perf_counter()
        time.sleep(0.01)  # let a few post-merge inserts land too
        stop.set()
        thread.join(timeout=30.0)
        if thread.is_alive():
            raise RuntimeError("foreground writer failed to stop")
        lost = rows + len(samples) - db.query("orders").count
        db.close()

    during = [
        end - start for start, end in samples if start < merge_end and end > merge_start
    ]
    if not during:  # merge faster than one insert: nothing stalled
        during = [end - start for start, end in samples]
    return {
        "merge_s": merge_end - merge_start,
        "p99_ms": p99(during) * 1e3,
        "lost": lost,
    }


def run(quick: bool) -> list[dict]:
    rows_out = []
    for rows in [100_000] if quick else [200_000, 1_000_000]:
        blocking = _merge_stall(rows, online=False)
        online = _merge_stall(rows, online=True)
        rows_out.append(
            {
                "rows": rows,
                "blocking_merge_s": blocking["merge_s"],
                "blocking_p99_ms": blocking["p99_ms"],
                "online_merge_s": online["merge_s"],
                "online_p99_ms": online["p99_ms"],
                "p99_reduction": blocking["p99_ms"] / online["p99_ms"],
                "rows_lost": blocking["lost"] + online["lost"],
            }
        )
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    assert all(row["rows_lost"] == 0 for row in rows)
    headline = rows[-1]
    # The blocking baseline really blocks: the worst overlapped insert
    # waited for (essentially) the whole merge.
    assert headline["blocking_p99_ms"] >= headline["blocking_merge_s"] * 1e3 * 0.5
    # Headline claim: >= 10x p99 write-stall reduction.
    assert headline["p99_reduction"] >= 10.0
