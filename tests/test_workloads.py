"""Tests for the experiments' workloads (``benchmarks/workloads.py``)
and the examples' order-entry workload (``examples/order_entry.py``)."""

import os
import random
import runpy
import subprocess
import sys

import pytest

from benchmarks.workloads import (
    YCSB_TABLE as TABLE,
    RowGenerator,
    WideRowGenerator,
    YcsbConfig,
    YcsbDriver,
    zipf_int,
)
from repro.core.config import DurabilityMode
from repro.core.database import Database

from tests.conftest import make_config

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
OrderEntryWorkload = runpy.run_path(os.path.join(EXAMPLES, "order_entry.py"))[
    "OrderEntryWorkload"
]


class TestGenerators:
    def test_row_generator_deterministic(self):
        a = RowGenerator(seed=1).rows(10)
        b = RowGenerator(seed=1).rows(10)
        assert a == b

    def test_row_generator_unique_ids(self):
        rows = RowGenerator().rows(100)
        ids = [r["id"] for r in rows]
        assert ids == list(range(100))

    def test_row_generator_emits_nulls(self):
        rows = RowGenerator(seed=3, null_rate=0.5).rows(200)
        nulls = sum(1 for r in rows if r["amount"] is None)
        assert 40 < nulls < 160

    def test_wide_generator_schema_matches_rows(self):
        gen = WideRowGenerator(int_cols=3, str_cols=2)
        schema = gen.schema
        row = gen.row()
        assert set(row) == set(schema.names)
        schema.validate_row(row)  # types line up

    def test_zipf_skews_low(self):
        rng = random.Random(5)
        draws = [zipf_int(rng, 1000) for _ in range(2000)]
        assert all(0 <= d < 1000 for d in draws)
        low = sum(1 for d in draws if d < 100)
        assert low > 400  # heavily skewed toward small keys


class TestYcsb:
    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            YcsbConfig(read_ratio=0.5, update_ratio=0.5, insert_ratio=0.5)

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_load_and_run(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        driver = YcsbDriver(db, YcsbConfig(records=50, seed=1))
        driver.load()
        assert db.query(TABLE).count == 50
        result = driver.run(120)
        assert result.operations == 120
        assert result.reads + result.updates + result.inserts == 120
        assert result.ops_per_second > 0
        db.close()

    def test_inserts_grow_table(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        driver = YcsbDriver(
            db,
            YcsbConfig(records=10, read_ratio=0.0, update_ratio=0.0, insert_ratio=1.0),
        )
        driver.load()
        driver.run(25)
        assert db.query(TABLE).count == 35
        db.close()

    def test_batched_transactions(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        driver = YcsbDriver(db, YcsbConfig(records=20, ops_per_txn=5))
        driver.load()
        result = driver.run(50)
        assert result.commits == 10
        db.close()

    def test_same_seed_same_op_stream(self, tmp_path):
        """A seed fixes every row the driver writes and every key it
        reads, updates and inserts."""
        tables = []
        for run in ("a", "b"):
            db = Database(str(tmp_path / run), make_config(DurabilityMode.NONE))
            driver = YcsbDriver(db, YcsbConfig(records=30, seed=9, ops_per_txn=3))
            driver.load()
            driver.run(90)
            tables.append(sorted(map(sorted, map(dict.items, db.query(TABLE).rows()))))
            db.close()
        assert tables[0] == tables[1]


class TestOrderEntry:
    def test_populate_and_run(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        wl = OrderEntryWorkload(db, warehouses=1, customers_per_warehouse=20)
        wl.create_tables()
        wl.populate()
        assert db.query("warehouses").count == 1
        assert db.query("customers").count == 20
        stats = wl.run(40)
        assert stats.transactions == 40
        assert db.query("orders").count == stats.new_orders
        db.close()

    def test_payment_changes_balance(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        wl = OrderEntryWorkload(db, warehouses=1, customers_per_warehouse=5, seed=2)
        wl.create_tables()
        wl.populate()
        before = sum(db.query("customers").column("c_balance"))
        for _ in range(10):
            wl.payment()
        after = sum(db.query("customers").column("c_balance"))
        assert after < before
        payments = sum(db.query("customers").column("c_payments"))
        assert payments == 10
        db.close()

    def test_survives_restart(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        wl = OrderEntryWorkload(db, warehouses=1, customers_per_warehouse=10)
        wl.create_tables()
        wl.populate()
        wl.run(30)
        orders = db.query("orders").count
        lines = db.query("order_lines").count
        db = db.restart()
        assert db.query("orders").count == orders
        assert db.query("order_lines").count == lines
        db.close()

    def test_the_examples_import_it_from_beside_them(self):
        script = os.path.join(EXAMPLES, "oltp_workload.py")
        env = {**os.environ, "PYTHONPATH": os.path.join(EXAMPLES, os.pardir, "src")}
        done = subprocess.run(
            [sys.executable, script, "20"], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "order lines intact" in done.stdout


class TestBenchUtils:
    def test_median_of(self):
        from benchmarks.harness import median_of

        values = iter([3.0, 1.0, 2.0])
        assert median_of(lambda: next(values), trials=3) == 2.0

    def test_format_table(self):
        from benchmarks.harness import format_table

        text = format_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.0001}], title="T"
        )
        assert "T" in text
        assert "a" in text and "b" in text
        assert "10" in text

    def test_format_table_empty(self):
        from benchmarks.harness import format_table

        assert "(no rows)" in format_table([])

    def test_format_series(self):
        from benchmarks.harness import format_series

        text = format_series("nvm", [1, 2], [0.5, 1.0])
        assert text.startswith("nvm:")
        assert "(1, 0.5)" in text
