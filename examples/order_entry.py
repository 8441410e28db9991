"""Order-entry workload: a TPC-C-flavoured multi-table OLTP mix.

Four tables (warehouses, customers, orders, order_lines) and three
transaction profiles:

* ``new_order`` — insert an order plus 1-10 order lines (write heavy,
  multi-table);
* ``payment`` — update a customer's balance (read-modify-write);
* ``order_status`` — read a customer's latest order and its lines
  (read only).

This is the kind of enterprise workload the paper's introduction
motivates: ``instant_restart.py`` populates it and then pulls the plug,
and ``oltp_workload.py`` runs it through a merge and a restart. Both
import it from beside them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro import Database, DataType, Eq, TransactionConflict

SCHEMAS = {
    "warehouses": {
        "w_id": DataType.INT64,
        "w_name": DataType.STRING,
        "w_ytd": DataType.FLOAT64,
    },
    "customers": {
        "c_id": DataType.INT64,
        "c_w_id": DataType.INT64,
        "c_name": DataType.STRING,
        "c_balance": DataType.FLOAT64,
        "c_payments": DataType.INT64,
    },
    "orders": {
        "o_id": DataType.INT64,
        "o_c_id": DataType.INT64,
        "o_w_id": DataType.INT64,
        "o_line_count": DataType.INT64,
        "o_status": DataType.STRING,
    },
    "order_lines": {
        "ol_o_id": DataType.INT64,
        "ol_number": DataType.INT64,
        "ol_item": DataType.STRING,
        "ol_qty": DataType.INT64,
        "ol_amount": DataType.FLOAT64,
    },
}


@dataclass
class OrderEntryStats:
    new_orders: int = 0
    payments: int = 0
    status_checks: int = 0
    conflicts: int = 0
    elapsed_seconds: float = 0.0

    @property
    def transactions(self) -> int:
        return self.new_orders + self.payments + self.status_checks

    @property
    def tps(self) -> float:
        if self.elapsed_seconds == 0:
            return 0.0
        return self.transactions / self.elapsed_seconds


@dataclass
class OrderEntryWorkload:
    """Populate and drive the order-entry schema on a database."""

    db: Database
    warehouses: int = 2
    customers_per_warehouse: int = 100
    seed: int = 99
    _rng: random.Random = field(init=False, repr=False)
    _next_order_id: int = field(init=False, default=0)

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def create_tables(self, with_indexes: bool = True) -> None:
        """DDL for the four tables (idempotent)."""
        for name, schema in SCHEMAS.items():
            if name not in self.db.table_names:
                self.db.create_table(name, schema)
        if with_indexes:
            wanted = {
                "customers": "c_id",
                "orders": "o_c_id",
                "order_lines": "ol_o_id",
            }
            for table, column in wanted.items():
                if column not in self.db.indexes_on(table):
                    self.db.create_index(table, column)

    def populate(self) -> None:
        """Bulk-load warehouses and customers."""
        rng = self._rng
        self.db.bulk_insert(
            "warehouses",
            [
                {"w_id": w, "w_name": f"warehouse-{w}", "w_ytd": 0.0}
                for w in range(self.warehouses)
            ],
        )
        customers = []
        for w in range(self.warehouses):
            for c in range(self.customers_per_warehouse):
                customers.append(
                    {
                        "c_id": w * self.customers_per_warehouse + c,
                        "c_w_id": w,
                        "c_name": f"customer-{w}-{c}",
                        "c_balance": round(rng.uniform(0, 1000), 2),
                        "c_payments": 0,
                    }
                )
        self.db.bulk_insert("customers", customers)

    @property
    def customer_count(self) -> int:
        return self.warehouses * self.customers_per_warehouse

    # ------------------------------------------------------------------
    # Transaction profiles
    # ------------------------------------------------------------------

    def new_order(self) -> None:
        rng = self._rng
        c_id = rng.randrange(self.customer_count)
        o_id = self._next_order_id
        self._next_order_id += 1
        lines = rng.randint(1, 10)
        with self.db.begin() as txn:
            txn.insert(
                "orders",
                {
                    "o_id": o_id,
                    "o_c_id": c_id,
                    "o_w_id": c_id // self.customers_per_warehouse,
                    "o_line_count": lines,
                    "o_status": "open",
                },
            )
            for number in range(lines):
                txn.insert(
                    "order_lines",
                    {
                        "ol_o_id": o_id,
                        "ol_number": number,
                        "ol_item": f"item-{rng.randrange(500)}",
                        "ol_qty": rng.randint(1, 20),
                        "ol_amount": round(rng.uniform(1, 100), 2),
                    },
                )

    def payment(self) -> None:
        rng = self._rng
        c_id = rng.randrange(self.customer_count)
        amount = round(rng.uniform(1, 100), 2)
        with self.db.begin() as txn:
            rows = txn.query("customers", Eq("c_id", c_id))
            refs = rows.refs()
            if not refs:
                return
            row = self.db.table("customers").get_row_dict(refs[0])
            txn.update(
                "customers",
                refs[0],
                {
                    "c_balance": round(row["c_balance"] - amount, 2),
                    "c_payments": row["c_payments"] + 1,
                },
            )

    def order_status(self) -> None:
        rng = self._rng
        c_id = rng.randrange(self.customer_count)
        with self.db.begin() as txn:
            orders = txn.query("orders", Eq("o_c_id", c_id))
            rows = orders.rows()
            if rows:
                latest = max(rows, key=lambda r: r["o_id"])
                txn.query("order_lines", Eq("ol_o_id", latest["o_id"])).rows()

    def run(
        self,
        transactions: int,
        mix: tuple[float, float, float] = (0.45, 0.43, 0.12),
    ) -> OrderEntryStats:
        """Run a mixed stream: (new_order, payment, order_status) ratios."""
        rng = self._rng
        stats = OrderEntryStats()
        new_cut = mix[0]
        pay_cut = mix[0] + mix[1]
        start = time.perf_counter()
        for _ in range(transactions):
            dice = rng.random()
            try:
                if dice < new_cut:
                    self.new_order()
                    stats.new_orders += 1
                elif dice < pay_cut:
                    self.payment()
                    stats.payments += 1
                else:
                    self.order_status()
                    stats.status_checks += 1
            except TransactionConflict:
                stats.conflicts += 1
        stats.elapsed_seconds = time.perf_counter() - start
        return stats
