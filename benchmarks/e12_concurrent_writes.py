"""E12 — concurrent writers: group-commit scaling in one engine.

The group-commit coordinator turns the WAL fsync from a per-commit cost
into a shared one: while the leader sleeps in fsync, other committers
append their commit records and block on the commit barrier; the next
leader's fsync covers them all. With the modelled WAL device
(``harness.WAL_FSYNC_S``, 3 ms an fsync, the dominant cost on a real
device), committed-transaction throughput must therefore scale with
writer threads even though every transaction still commits durably
before its ack.

Two policies are swept over writer counts:

* **sync** (``group_commit_size=1``): every ack waits for durability —
  the leader/follower fsync coalescing is the entire win. The headline
  bars: ≥2× committed txn/s at 8 writers vs 1, and fsyncs per commit
  < 0.5 at 8 writers (the coalescing is real, not incidental).
* **async** (``group_commit_size=0``): acks never wait; throughput is
  bounded by the commit pipeline itself, and the table reports the
  acked-vs-durable gap the observability layer surfaces.
"""

from __future__ import annotations

import statistics
import tempfile
import threading
import time

from repro.core import Database, DurabilityMode
from repro.storage.types import DataType

from benchmarks.harness import WAL_FSYNC_S, config_for

TITLE = "E12: committed txn/s vs writer threads (one engine, 3 ms fsync)"

POLICIES = [("sync", 1), ("async", 0)]

#: Rounds of every (policy, writers) run; the table reports medians.
ROUNDS = 5


def _run_writers(group_size: int, writers: int, txns: int) -> dict:
    """``writers`` threads each run ``txns`` autocommit inserts against
    the *same* Database — the thread-safe commit pipeline under test."""
    with tempfile.TemporaryDirectory(prefix="e12-") as path:
        db = Database(
            path,
            config_for(
                DurabilityMode.LOG,
                group_commit_size=group_size,
                wal_fsync_delay_s=WAL_FSYNC_S,
            ),
        )
        db.create_table("t", {"k": DataType.INT64, "v": DataType.INT64})
        base_syncs = db.stats()["wal"]["syncs"]
        barrier = threading.Barrier(writers)

        def writer(i: int) -> None:
            barrier.wait()
            for j in range(txns):
                db.insert("t", {"k": i * txns + j, "v": j})

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        commits = writers * txns
        wal = db.stats()["wal"]
        result = {
            "commits": commits,
            "rows": db.query("t").count,
            "acked": wal["commits_acked"],
            "txn_s": commits / elapsed,
            "fsyncs_per_commit": (wal["syncs"] - base_syncs) / commits,
            "ack_gap": wal["ack_durability_gap"],
        }
        db.close()
    return result


def run(quick: bool) -> list[dict]:
    writer_counts = [1, 8] if quick else [1, 2, 4, 8]
    txns = 16 if quick else 24
    # The host's speed drifts over seconds (one writer has read anywhere
    # from ~100 to ~275 txn/s), so each round runs every writer count
    # back to back, and a speedup is the median of the per-round ratios
    # against the same round's single writer.
    rounds = [
        {
            (tag, writers): _run_writers(group_size, writers, txns)
            for tag, group_size in POLICIES
            for writers in writer_counts
        }
        for _ in range(ROUNDS)
    ]

    def median(tag: str, writers: int, key: str) -> float:
        return statistics.median(runs[tag, writers][key] for runs in rounds)

    rows_out = []
    for writers in writer_counts:
        record = {"writers": writers}
        for tag, _ in POLICIES:
            record[f"{tag}_txn_s"] = median(tag, writers, "txn_s")
            record[f"{tag}_speedup"] = statistics.median(
                runs[tag, writers]["txn_s"] / runs[tag, 1]["txn_s"] for runs in rounds
            )
            record[f"{tag}_fsyncs_per_commit"] = median(
                tag, writers, "fsyncs_per_commit"
            )
            # Every commit is visible and was acked, in both policies.
            record[f"{tag}_lost"] = max(
                result["commits"] - min(result["rows"], result["acked"])
                for result in (runs[tag, writers] for runs in rounds)
            )
        record["async_ack_gap"] = median("async", writers, "ack_gap")
        rows_out.append(record)
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    for row in rows:
        assert row["sync_lost"] == 0 and row["async_lost"] == 0
    one, eight = rows[0], next(row for row in rows if row["writers"] == 8)
    # Headline claim: sync group commit amortises the fsync across
    # concurrent committers — 8 writers beat 1 by at least 2x ...
    assert eight["sync_speedup"] >= 2
    # ... by the mechanism, not a side effect: far fewer fsyncs than commits.
    assert eight["sync_fsyncs_per_commit"] < 0.5
    # A lone sync writer cannot amortise: one fsync per commit.
    assert one["sync_fsyncs_per_commit"] >= 0.99
    # Async acks never wait for the device, so even one writer beats the
    # single sync writer (whose every commit eats a full fsync delay).
    assert one["async_txn_s"] > one["sync_txn_s"]
