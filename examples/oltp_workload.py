#!/usr/bin/env python3
"""Order-entry OLTP on Hyrise-NV: mixed transactions, merge, statistics.

Demonstrates the whole engine lifecycle under an enterprise-style
workload: bulk population, a mixed stream of new-order / payment /
order-status transactions, a merge folding the delta into the
read-optimised main, and engine statistics (compression, NVM traffic).

Run with::

    python examples/oltp_workload.py [transactions]
"""

import shutil
import sys
import tempfile

from repro import Database, DurabilityMode, EngineConfig, aggregate

from order_entry import OrderEntryWorkload  # examples/order_entry.py


def main() -> None:
    transactions = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    path = tempfile.mkdtemp(prefix="oltp-")
    db = Database(path, EngineConfig(mode=DurabilityMode.NVM))

    workload = OrderEntryWorkload(db, warehouses=4, customers_per_warehouse=250)
    workload.create_tables()
    workload.populate()

    print(f"running {transactions} mixed transactions ...")
    stats = workload.run(transactions)
    print(
        f"  {stats.tps:,.0f} tps  "
        f"(new_order={stats.new_orders}, payment={stats.payments}, "
        f"status={stats.status_checks}, conflicts={stats.conflicts})"
    )

    orders = db.table("orders")
    print(
        f"\norders before merge: main={orders.main_row_count}, "
        f"delta={orders.delta_row_count}"
    )
    for name in ("orders", "order_lines", "customers"):
        db.merge(name)
    print(
        f"orders after merge:  main={orders.main_row_count}, "
        f"delta={orders.delta_row_count} (generation {orders.generation})"
    )

    # Analytics over the merged, dictionary-compressed main.
    lines = db.query("order_lines")
    revenue = aggregate(lines, "sum", "ol_amount")
    top_items = aggregate(lines, "count", group_by="ol_item")
    best = sorted(top_items.items(), key=lambda kv: -kv[1])[:3]
    print(f"\ntotal revenue: {revenue:,.2f}")
    print("top items:", ", ".join(f"{item} x{n}" for item, n in best))

    engine = db.stats()
    print(
        f"\nengine: commits={engine['commits']}, conflicts={engine['conflicts']}"
    )
    nvm = engine["nvm"]
    print(
        f"NVM traffic: {nvm['bytes_written'] / 1e6:.1f} MB written, "
        f"{nvm['lines_flushed']:,} cache lines flushed, "
        f"{nvm['drain_calls']:,} persist barriers"
    )
    ol_stats = engine["tables"]["order_lines"]
    print(
        f"order_lines main compressed to "
        f"{ol_stats['main_compressed_bytes'] / 1e6:.2f} MB "
        f"for {ol_stats['main_rows']} rows"
    )

    # The merged state survives an instant restart.
    db = db.restart()
    print(
        f"\nrestart: {db.last_recovery.total_seconds * 1e3:.2f} ms; "
        f"{db.query('order_lines').count} order lines intact"
    )
    db.close()
    shutil.rmtree(path)


if __name__ == "__main__":
    main()
