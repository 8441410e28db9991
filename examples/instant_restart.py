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

Run with::

    python examples/instant_restart.py [customers]
"""

import shutil
import sys
import tempfile
import time

from repro import Database, DurabilityMode, EngineConfig, Eq

from order_entry import OrderEntryWorkload  # examples/order_entry.py


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


def main() -> None:
    customers = int(sys.argv[1]) if len(sys.argv) > 1 else 2000

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


if __name__ == "__main__":
    main()
