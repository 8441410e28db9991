"""Tests for ordering, joins, index range scans, auto-merge, drop table."""

import time

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.query.join import anti_join, hash_join, semi_join
from repro.query.predicate import Between, Eq, Ge, Gt, Le, Lt
from repro.query.sort import order_by, top_k
from repro.storage.types import DataType

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

    def test_drop_with_active_txn_rejected(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        txn = none_db.begin()
        txn.insert("t", {"a": 1})
        with pytest.raises(RuntimeError):
            none_db.drop_table("t")
        txn.abort()

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
