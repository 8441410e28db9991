"""E14 — WAL shipping: lag, throughput tax, and failover time.

One writer loops autocommit inserts against a LOG or NVM primary while a
:class:`~repro.replication.WalShipper` streams the log to followers.
Async commits never wait on replication; semi-sync holds every commit
ack for one follower apply; quorum (two followers) for a majority. Per
cell the run measures:

* **write throughput** and commit p99 — semi-sync/quorum pay an
  apply-ack round-trip on every commit, async pays nothing;
* **steady-state replication lag** — ``shipper.status()`` sampled
  mid-run (bytes the slowest follower trails the primary's log end);
  a synchronous ack mode pins it near zero;
* **failover time** — the primary crashes after the writer finishes and
  the follower is promoted through the instant-restart fix-up; the
  figure is the wall-clock of ``Follower.promote``, milliseconds in
  every mode.

Followers are synced before the crash, so the promoted replica must
hold *every* row.
"""

from __future__ import annotations

import tempfile
import time

from repro.core import Database, DurabilityMode, EngineConfig
from repro.replication import AckMode, Follower, WalShipper
from repro.storage.types import DataType

from benchmarks.harness import p99

TITLE = "E14: replication lag vs write throughput vs failover time"

#: Sample the shipper's lag gauge every this many inserts.
_LAG_EVERY = 16


def _primary_config(mode: DurabilityMode) -> EngineConfig:
    if mode is DurabilityMode.LOG:
        # Synchronous group commit: every ack is locally durable, so the
        # async frontier (ship only what the primary fsynced) advances
        # with each commit and the lag samples are meaningful.
        return EngineConfig(mode=mode, group_commit_size=1)
    return EngineConfig(mode=mode)


def _replicate(mode: DurabilityMode, ack: AckMode, ops: int, followers: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="e14-") as root:
        db = Database(f"{root}/primary", _primary_config(mode))
        db.create_table("kv", {"id": DataType.INT64, "payload": DataType.STRING})
        shipper = WalShipper(db, ack_mode=ack, ack_timeout_s=30.0)
        replicas = [
            shipper.add_follower(Follower(f"{root}/replica{i}", name=f"r{i}"))
            for i in range(followers)
        ]
        shipper.start()

        latencies, lag_samples = [], []
        t_run = time.perf_counter()
        for i in range(ops):
            t0 = time.perf_counter()
            db.insert("kv", {"id": i, "payload": "x" * 64})
            latencies.append(time.perf_counter() - t0)
            if i % _LAG_EVERY == 0:
                status = shipper.status()["followers"].values()
                lag_samples.append(float(max(f["lag_bytes"] for f in status)))
        elapsed = time.perf_counter() - t_run

        if not shipper.sync_followers(timeout_s=30.0):
            raise RuntimeError("followers failed to catch up")
        shipper.stop()
        db.crash(seed=3)

        t0 = time.perf_counter()
        promoted = replicas[0].promote()
        failover_s = time.perf_counter() - t0
        recovered = promoted.query("kv").count
        promoted.close()
        for replica in replicas:
            replica.close()
    return {
        "mode": mode.value,
        "ack": ack.value,
        "followers": followers,
        "ops": ops,
        "throughput_ops_s": ops / elapsed,
        "commit_p99_ms": p99(latencies) * 1e3,
        "lag_bytes_p99": p99(lag_samples),
        "failover_ms": failover_s * 1e3,
        "rows_promoted": recovered,
    }


def run(quick: bool) -> list[dict]:
    # Quorum runs two followers so its majority (2 // 2 + 1 = 2, both)
    # differs from semi-sync's any one of them.
    ops = 150 if quick else 400
    return [
        _replicate(mode, ack, ops, followers=2 if ack is AckMode.QUORUM else 1)
        for mode in (DurabilityMode.LOG, DurabilityMode.NVM)
        for ack in (AckMode.ASYNC, AckMode.SEMI_SYNC, AckMode.QUORUM)
    ]


def check(rows: list[dict], quick: bool) -> None:
    for row in rows:
        assert row["rows_promoted"] == row["ops"]
        # Every cell measured a real failover, and the promotion is the
        # instant-restart fix-up, not a rebuild.
        assert 0.0 < row["failover_ms"] < 10_000.0
        # Lag was sampled (zero is legal: a fast follower can be fully
        # caught up at every sample point).
        assert row["lag_bytes_p99"] >= 0.0
    # Synchronous ack modes bound the lag: a semi-sync/quorum commit does
    # not ack until a follower applied it, so the sampled backlog stays
    # within about one in-flight commit of zero (4 KiB is ~20x one
    # insert record of this row shape).
    sync_rows = [row for row in rows if row["ack"] in ("semi_sync", "quorum")]
    assert sync_rows and all(row["lag_bytes_p99"] <= 4096.0 for row in sync_rows)
