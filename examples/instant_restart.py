#!/usr/bin/env python3
"""The paper's demo scenario: pull the plug, compare restart times.

Populates the same order-entry dataset in two engines — the classic
log-based configuration and Hyrise-NV — simulates a power failure in
the middle of a transaction, and measures how long each takes to be
answering queries again.

Paper headline (92.2 GB, server hardware): log-based ~53 s, Hyrise-NV
under one second. At laptop scale the absolute numbers shrink, but the
shape — log restart grows with data, NVM restart does not — is the
reproduced claim.

A second act shards the NVM engine (``open_engine`` with ``shards=N``)
and pulls the plug again: all shards recover in parallel and the restart stays flat.

Run with::

    python examples/instant_restart.py [customers] [shards]
"""

import shutil
import sys
import tempfile
import time

from repro import (
    Database,
    DataType,
    DurabilityMode,
    EngineConfig,
    Eq,
    open_engine,
)
from repro.workloads.orders import OrderEntryWorkload


def populate(path: str, config: EngineConfig, customers: int) -> Database:
    db = Database(path, config)
    workload = OrderEntryWorkload(
        db, warehouses=4, customers_per_warehouse=customers // 4
    )
    workload.create_tables()
    workload.populate()
    workload.run(transactions=300)
    return db


def crash_and_recover(db: Database, path: str, config: EngineConfig):
    # A transaction is in flight when the power goes out.
    victim = db.begin()
    victim.insert(
        "orders",
        {"o_id": 10**9, "o_c_id": 0, "o_w_id": 0, "o_line_count": 1, "o_status": "doomed"},
    )
    db.crash()

    start = time.perf_counter()
    recovered = Database(path, config)
    # "Recovered" means answering queries:
    order_count = recovered.query("orders").count
    first_query = recovered.query("customers", Eq("c_id", 1)).rows()
    elapsed = time.perf_counter() - start
    assert first_query, "customer 1 must be readable"
    assert recovered.query("orders", Eq("o_id", 10**9)).count == 0, (
        "the in-flight transaction must be rolled back"
    )
    return elapsed, order_count, recovered


def sharded_demo(customers: int, shards: int) -> None:
    """Crash a hash-sharded NVM engine; every shard recovers in parallel."""
    path = tempfile.mkdtemp(prefix="instant-restart-sharded-")
    config = EngineConfig(mode=DurabilityMode.NVM, shards=shards)
    print(f"\n[sharded]  populating {shards}-shard NVM engine ...")
    eng = open_engine(path, config)
    eng.create_table(
        "customers",
        {
            "c_id": DataType.INT64,
            "c_name": DataType.STRING,
            "c_balance": DataType.FLOAT64,
        },
    )
    eng.bulk_insert(
        "customers",
        [
            {"c_id": i, "c_name": f"customer-{i}", "c_balance": i * 0.5}
            for i in range(customers)
        ],
    )
    eng.crash(seed=7)

    start = time.perf_counter()
    # The default config: the directory remembers its shard count.
    recovered = open_engine(path)
    count = recovered.query("customers").count
    elapsed = time.perf_counter() - start
    assert count == customers, count
    report = recovered.last_recovery
    print(
        f"[sharded]  crash -> first query in {elapsed:.4f}s "
        f"across {report.shards} shards"
    )
    print(
        f"           wall {report.total_seconds:.4f}s, serial "
        f"{report.serial_seconds:.4f}s, parallel speedup "
        f"{report.parallel_speedup:.2f}x"
    )
    for i, shard in enumerate(report.shard_reports):
        phases = ", ".join(f"{n}={s:.4f}s" for n, s in shard.phases)
        print(f"           shard-{i:04d}: {shard.total_seconds:.4f}s ({phases})")
    recovered.close()
    shutil.rmtree(path)


def main() -> None:
    customers = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    shards = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    results = {}
    for label, config in [
        ("log-based", EngineConfig(mode=DurabilityMode.LOG, group_commit_size=8)),
        ("hyrise-nv", EngineConfig(mode=DurabilityMode.NVM)),
    ]:
        path = tempfile.mkdtemp(prefix=f"instant-restart-{label}-")
        print(f"[{label}] populating {customers} customers + 300 transactions ...")
        db = populate(path, config, customers)
        logical_mb = db.logical_bytes() / 1e6
        elapsed, orders, db = crash_and_recover(db, path, config)
        results[label] = elapsed
        report = db.last_recovery
        print(
            f"[{label}] crash -> first query in {elapsed:.4f}s "
            f"({orders} orders, ~{logical_mb:.1f} MB logical)"
        )
        for phase, seconds in report.phases:
            print(f"          {phase:<18} {seconds:.4f}s")
        db.close()
        shutil.rmtree(path)

    ratio = results["log-based"] / results["hyrise-nv"]
    print(f"\nHyrise-NV restarted {ratio:.0f}x faster than the log-based engine.")
    print("(Paper: 53 s vs <1 s on a 92.2 GB dataset — same shape, bigger data.)")

    sharded_demo(customers, shards)


if __name__ == "__main__":
    main()
