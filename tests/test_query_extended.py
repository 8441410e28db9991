"""Tests for ordering, joins, index range scans, auto-merge, drop table."""

import sys
import threading
import time

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.query.join import anti_join, hash_join, semi_join
from repro.query.predicate import Between, Eq, Ge, Gt, Le, Lt
from repro.query.sort import order_by, top_k
from repro.storage.types import DataType
from repro.txn.errors import TransactionConflict

from tests.conftest import make_config

ITEMS = {"id": DataType.INT64, "name": DataType.STRING, "price": DataType.FLOAT64}


@pytest.fixture
def shop(none_db):
    none_db.create_table("items", ITEMS)
    none_db.bulk_insert(
        "items",
        [
            {"id": 1, "name": "anvil", "price": 99.0},
            {"id": 2, "name": "rope", "price": 9.5},
            {"id": 3, "name": "tent", "price": None},
            {"id": 4, "name": "mug", "price": 4.0},
        ],
    )
    none_db.create_table(
        "sales", {"item_id": DataType.INT64, "qty": DataType.INT64}
    )
    none_db.bulk_insert(
        "sales",
        [
            {"item_id": 1, "qty": 2},
            {"item_id": 2, "qty": 5},
            {"item_id": 2, "qty": 1},
            {"item_id": 9, "qty": 7},
        ],
    )
    return none_db


class TestOrderBy:
    def test_ascending_nulls_last(self, shop):
        rows = order_by(shop.query("items"), "price")
        assert [r["id"] for r in rows] == [4, 2, 1, 3]

    def test_descending_nulls_first(self, shop):
        rows = order_by(shop.query("items"), "price", descending=True)
        assert [r["id"] for r in rows] == [3, 1, 2, 4]

    def test_limit(self, shop):
        rows = order_by(shop.query("items"), "price", limit=2)
        assert [r["id"] for r in rows] == [4, 2]

    def test_multi_column(self, shop):
        shop.bulk_insert("items", [{"id": 5, "name": "rope", "price": 1.0}])
        rows = order_by(shop.query("items"), ["name", "price"])
        names = [r["name"] for r in rows]
        assert names == sorted(names)
        rope_prices = [r["price"] for r in rows if r["name"] == "rope"]
        assert rope_prices == [1.0, 9.5]

    def test_unknown_column(self, shop):
        with pytest.raises(KeyError):
            order_by(shop.query("items"), "ghost")

    def test_top_k(self, shop):
        rows = top_k(shop.query("items"), "price", 2)
        assert [r["id"] for r in rows] == [1, 2]


class TestJoins:
    def test_inner_join(self, shop):
        rows = hash_join(
            shop.query("sales"), shop.query("items"), "item_id", "id"
        )
        assert len(rows) == 3  # item 9 has no match
        rope_sales = [r for r in rows if r["name"] == "rope"]
        assert sorted(r["qty"] for r in rope_sales) == [1, 5]

    def test_join_column_subset(self, shop):
        rows = hash_join(
            shop.query("sales"),
            shop.query("items"),
            "item_id",
            "id",
            right_columns=["id", "name"],
        )
        assert set(rows[0]) == {"item_id", "qty", "id", "name"}

    def test_join_null_keys_excluded(self, shop):
        shop.bulk_insert("sales", [{"item_id": None, "qty": 3}])
        rows = hash_join(shop.query("sales"), shop.query("items"), "item_id", "id")
        assert all(r["item_id"] is not None for r in rows)

    def test_name_collision_prefixed(self, shop):
        shop.create_table("other", {"id": DataType.INT64, "name": DataType.STRING})
        shop.bulk_insert("other", [{"id": 1, "name": "different"}])
        rows = hash_join(shop.query("items"), shop.query("other"), "id")
        assert rows[0]["name"] == "anvil"
        assert rows[0]["other.name"] == "different"

    def test_semi_join(self, shop):
        rows = semi_join(shop.query("items"), shop.query("sales"), "id", "item_id")
        assert sorted(r["id"] for r in rows) == [1, 2]

    def test_anti_join(self, shop):
        rows = anti_join(shop.query("items"), shop.query("sales"), "id", "item_id")
        assert sorted(r["id"] for r in rows) == [3, 4]


class TestIndexRangeScan:
    @pytest.fixture
    def indexed(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.create_table("nums", {"n": DataType.INT64, "tag": DataType.STRING})
        db.bulk_insert("nums", [{"n": i, "tag": f"t{i % 3}"} for i in range(50)])
        db.merge("nums")  # half main ...
        db.bulk_insert("nums", [{"n": 50 + i, "tag": "d"} for i in range(50)])
        yield db  # ... half delta
        db.close()

    @pytest.mark.parametrize(
        "predicate,expected",
        [
            (Between("n", 45, 55), list(range(45, 56))),
            (Lt("n", 3), [0, 1, 2]),
            (Le("n", 3), [0, 1, 2, 3]),
            (Gt("n", 96), [97, 98, 99]),
            (Ge("n", 97), [97, 98, 99]),
        ],
    )
    def test_range_matches_full_scan(self, indexed, predicate, expected):
        before = sorted(indexed.query("nums", predicate).column("n"))
        assert before == expected
        indexed.create_index("nums", "n")
        after = sorted(indexed.query("nums", predicate).column("n"))
        assert after == expected

    def test_range_respects_visibility(self, indexed):
        indexed.create_index("nums", "n")
        with indexed.begin() as txn:
            ref = txn.query("nums", Eq("n", 47)).refs()[0]
            txn.delete("nums", ref)
        assert sorted(indexed.query("nums", Between("n", 45, 50)).column("n")) == [
            45, 46, 48, 49, 50,
        ]


class TestAutoMerge:
    def test_merges_when_threshold_crossed(self, tmp_path):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.NVM, auto_merge_rows=20),
        )
        db.create_table("t", {"a": DataType.INT64})
        db.bulk_insert("t", [{"a": i} for i in range(25)])
        assert db._maintenance.wait_idle(timeout=10.0)
        table = db.table("t")
        assert table.main_row_count == 25
        assert table.delta_row_count == 0
        assert table.generation == 1
        db.close()

    def test_single_commits_trigger(self, tmp_path):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.NONE, auto_merge_rows=5),
        )
        db.create_table("t", {"a": DataType.INT64})
        for i in range(12):
            db.insert("t", {"a": i})
        assert db._maintenance.wait_idle(timeout=10.0)
        table = db.table("t")
        # The daemon may coalesce several threshold crossings into one
        # merge; what is guaranteed is that the delta ends up below the
        # threshold and nothing was lost.
        assert table.generation >= 1
        assert table.delta_row_count < 5
        assert db.query("t").count == 12
        db.close()

    def test_disabled_by_default(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        none_db.bulk_insert("t", [{"a": i} for i in range(100)])
        assert none_db.table("t").generation == 0

    def test_deferred_while_txn_holds_ops(self, tmp_path):
        db = Database(
            str(tmp_path / "db"),
            make_config(
                DurabilityMode.NONE,
                auto_merge_rows=2,
                merge_cutover_timeout_s=0.1,
            ),
        )
        db.create_table("t", {"a": DataType.INT64})
        holder = db.begin()
        holder.insert("t", {"a": 99})
        writer = db.begin()
        for i in range(5):
            writer.insert("t", {"a": i})
        writer.commit()
        # The holder's operations block the cutover: give the daemon a
        # few attempt windows and check the merge kept being abandoned.
        time.sleep(0.4)
        assert db.table("t").generation == 0
        holder.commit()
        deadline = time.monotonic() + 10.0
        while db.table("t").generation == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert db.table("t").generation >= 1
        assert db.query("t").count == 6
        db.close()


class TestDropTable:
    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_drop_survives_restart(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        db.create_table("keep", {"a": DataType.INT64})
        db.create_table("gone", {"a": DataType.INT64})
        db.bulk_insert("gone", [{"a": 1}])
        db.drop_table("gone")
        assert db.table_names == ["keep"]
        db = db.restart()
        assert db.table_names == ["keep"]
        db.close()

    def test_drop_unknown_table(self, none_db):
        with pytest.raises(KeyError):
            none_db.drop_table("ghost")

    def test_drop_waits_only_for_transactions_on_the_table(self, tmp_path):
        """A drop is a cutover to nothing: a transaction holding operations
        on the table times it out, and one on another table does not."""
        config = make_config(DurabilityMode.NONE, merge_cutover_timeout_s=0.05)
        db = Database(str(tmp_path / "db"), config)
        db.create_table("t", {"a": DataType.INT64})
        db.create_table("other", {"a": DataType.INT64})
        holder = db.begin()
        holder.insert("t", {"a": 1})
        bystander = db.begin()
        bystander.insert("other", {"a": 2})
        with pytest.raises(RuntimeError, match="cutover timed out"):
            db.drop_table("t")
        assert db.table_names == ["other", "t"]
        holder.abort()
        db.drop_table("t")
        bystander.commit()
        assert db.table_names == ["other"]
        assert db.query("other").column("a") == [2]
        db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_an_operation_after_the_drop_conflicts(self, tmp_path, mode):
        """A transaction that read the table before the drop cannot write
        it after: its insert and its delete raise a retryable conflict,
        and nothing of it names the dropped table."""
        path = str(tmp_path / "db")
        db = Database(path, make_config(mode))
        db.create_table("keep", {"a": DataType.INT64})
        db.create_table("gone", {"a": DataType.INT64})
        db.insert("gone", {"a": 1})
        table = db.table("gone")
        txn = db.begin()
        ref = txn.query("gone").refs()[0]
        txn.insert("keep", {"a": 7})
        db.drop_table("gone")
        assert table.generation == 1
        with pytest.raises(TransactionConflict, match="dropped"):
            db._manager.insert(txn.ctx, table, [2])
        with pytest.raises(TransactionConflict, match="dropped"):
            db._manager.invalidate(txn.ctx, table, ref)
        txn.commit()
        db.crash()
        db = Database(path, make_config(mode))
        assert db.table_names == ["keep"]
        assert db.query("keep").column("a") == [7]
        assert db.verify() == []
        db.close()

    def test_recreate_after_drop(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.create_table("t", {"a": DataType.INT64})
        db.bulk_insert("t", [{"a": 1}])
        db.drop_table("t")
        db.create_table("t", {"a": DataType.INT64, "b": DataType.STRING})
        db.bulk_insert("t", [{"a": 2, "b": "x"}])
        db = db.restart()
        assert db.query("t").rows() == [{"a": 2, "b": "x"}]
        db.close()

    def test_dropped_indexed_table_log_mode(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
        db.create_table("t", {"a": DataType.INT64})
        db.create_index("t", "a")
        db.drop_table("t")
        db = db.restart()
        assert db.table_names == []
        db.close()


class _Arrival:
    """A lock that says when a thread reached it."""

    def __init__(self, lock):
        self._lock = lock
        self.reached = threading.Event()

    def __enter__(self):
        self.reached.set()
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()


class TestDropRacingATransaction:
    """The drop blocks on the maintenance lock past the point where it
    used to check for open transactions; a transaction begins and
    inserts into the table in that window. The engine must reopen with
    every other table intact, whatever became of the transaction."""

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    @pytest.mark.parametrize("outcome", ["commit", "abort", "open"])
    def test_reopens_after_the_race(self, tmp_path, mode, outcome):
        path = str(tmp_path / "db")
        # Short when the holder never ends: the drop gives up.
        timeout = 0.2 if outcome == "open" else 10.0
        db = Database(path, make_config(mode, merge_cutover_timeout_s=timeout))
        db.create_table("keep", {"a": DataType.INT64})
        db.create_table("gone", {"a": DataType.INT64})
        db.insert("keep", {"a": 1})
        db.insert("gone", {"a": 1})
        arrival = db._maint_lock = _Arrival(db._maint_lock)
        errors: list = []

        def drop():
            try:
                db.drop_table("gone")
            except RuntimeError as exc:
                errors.append(exc)

        dropper = threading.Thread(target=drop)
        with arrival:
            arrival.reached.clear()
            dropper.start()
            assert arrival.reached.wait(10.0)
            txn = db.begin()
            txn.insert("gone", {"a": 2})
            txn.insert("keep", {"a": 2})
        # Let the drop run on: it must wait for the transaction, or give
        # up on it, rather than drop the table from under it.
        dropper.join(0.5)
        if outcome == "commit":
            txn.commit()
        elif outcome == "abort":
            txn.abort()
        dropper.join(30.0)
        assert not dropper.is_alive()
        if outcome == "open":
            assert len(errors) == 1 and "cutover timed out" in str(errors[0])
        else:
            assert errors == []
        db.crash()
        db = Database(path, make_config(mode))
        assert db.verify() == []
        expected_keep = [1, 2] if outcome == "commit" else [1]
        assert sorted(db.query("keep").column("a")) == expected_keep
        if outcome == "open":
            assert db.table_names == ["gone", "keep"]
            assert db.query("gone").column("a") == [1]
        else:
            assert db.table_names == ["keep"]
        db.insert("keep", {"a": 3})
        db = db.restart()
        assert sorted(db.query("keep").column("a")) == expected_keep + [3]
        db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_writers_racing_a_drop_leave_a_reopenable_engine(self, tmp_path, mode):
        """Stress: writer threads (more than cores) insert into the table
        while it is dropped, under a short switch interval. Each of their
        transactions commits whole or raises; the drop completes, and the
        engine reopens after a crash without the table."""
        path = str(tmp_path / "db")
        db = Database(path, make_config(mode))
        db.create_table("keep", {"a": DataType.INT64})
        db.create_table("gone", {"a": DataType.INT64})
        started = threading.Barrier(5)

        def write(i: int) -> None:
            started.wait(10.0)
            for n in range(150):
                txn = db.begin()
                try:
                    txn.insert("keep", {"a": i * 1000 + n})
                    txn.insert("gone", {"a": n})
                    txn.commit()
                except (KeyError, TransactionConflict):
                    txn.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=write, args=(i,)) for i in range(4)]
            for writer in writers:
                writer.start()
            started.wait(10.0)
            time.sleep(0.01)
            db.drop_table("gone")
            for writer in writers:
                writer.join(60.0)
                assert not writer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(db._manager.active) == 0
        assert db.verify() == []
        db.crash()
        db = Database(path, make_config(mode))
        assert db.table_names == ["keep"]
        assert db.verify() == []
        db.close()
