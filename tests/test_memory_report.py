"""Tests for space accounting (``blocks()`` and the engine memory report)."""

import numpy as np
import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.nvm.pvector import PVector
from repro.query.predicate import Eq
from repro.storage.types import DataType
from repro.storage.vector import VolatileVector

from tests.conftest import make_config


def held(structure) -> int:
    return sum(nbytes for _, nbytes in structure.blocks())


class TestBlocks:
    def test_pvector_grows_with_chunks(self, pool):
        v = PVector.create(pool, np.uint64, chunk_capacity=8)
        empty = held(v)
        v.extend(np.arange(40, dtype=np.uint64))
        assert held(v) == empty + 5 * 8 * 8  # five chunks of 8 u64

    def test_pvector_blocks_are_what_it_allocated(self, pool):
        before = pool.space()["allocated_bytes"]
        v = PVector.create(pool, np.uint64, chunk_capacity=4)
        v.extend(np.arange(4 * 40, dtype=np.uint64))  # two directory growths
        assert held(v) == pool.space()["allocated_bytes"] - before

    def test_volatile_vector_nbytes(self):
        v = VolatileVector(np.uint32)
        v.extend(np.arange(100, dtype=np.uint32))
        assert held(v) >= 400


class TestMemoryReport:
    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.NONE])
    def test_report_structure(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        db.create_table("t", {"a": DataType.INT64, "s": DataType.STRING})
        db.create_index("t", "a")
        db.bulk_insert("t", [{"a": i, "s": f"x{i % 9}"} for i in range(500)])
        db.merge("t")
        full = db.memory_report()
        report = full["tables"]["t"]
        for key in (
            "main_packed",
            "main_dictionaries",
            "main_mvcc",
            "delta_codes",
            "delta_mvcc",
            "indexes",
            "total",
        ):
            assert key in report
        assert report["total"] == sum(
            v for k, v in report.items() if k != "total"
        )
        assert report["main_packed"] > 0
        assert report["indexes"] > 0
        if mode is DurabilityMode.NVM:
            # The ledger closes: every allocated byte is in a table, in
            # the catalog, or pinned by a retiring generation.
            assert full["unreachable"] == 0
            assert full["allocated_bytes"] == (
                report["total"] + full["catalog"] + full["retiring"]
            )
        db.close()

    def test_counts_string_blobs(self, tmp_path):
        """String payloads are bytes like any other."""
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.create_table("t", {"a": DataType.INT64, "s": DataType.STRING})
        db.create_index("t", "a")
        db.bulk_insert("t", [{"a": i, "s": "x" * 100 + str(i)} for i in range(64)])
        full = db.memory_report()
        assert full["tables"]["t"]["delta_dictionaries"] > 64 * 100  # the blobs
        assert full["unreachable"] == 0
        db.close()

    def test_the_delta_index_holds_no_pool_bytes(self, tmp_path):
        """Only an index's group-key half is on the pool; delta inserts
        grow its DRAM half, not the report's ``indexes``."""
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.create_table("t", {"a": DataType.INT64})
        db.create_index("t", "a")
        before = db.memory_report()["tables"]["t"]["indexes"]
        db.bulk_insert("t", [{"a": i} for i in range(500)])
        assert db.query("t", Eq("a", 7)).count == 1  # the delta half fills
        index = db.indexes_on("t")["a"]
        assert index.delta_index.entry_count() == 500
        assert db.memory_report()["tables"]["t"]["indexes"] == before
        db.close()

    def test_main_mvcc_is_paid_for_only_where_rows_changed(self, tmp_path):
        """A merged main stores ``begin``; ``end`` and ``tid`` read as
        ∞ and ``NO_TID`` until a delete stores into one chunk of each."""
        rows = 20_000
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.create_table("t", {"a": DataType.INT64})
        db.bulk_insert("t", [{"a": i} for i in range(rows)])
        db.merge("t")
        untouched = db.memory_report()["tables"]["t"]["main_mvcc"]
        assert untouched <= 9 * rows
        with db.begin() as txn:
            txn.delete("t", txn.query("t", Eq("a", 5)).refs()[0])
        end = db.table("t").main.mvcc.end
        chunk = end.chunk_capacity * end.dtype.itemsize
        assert db.memory_report()["tables"]["t"]["main_mvcc"] == untouched + 2 * chunk
        assert db.memory_report()["unreachable"] == 0
        assert db.query("t").count == rows - 1
        db.close()

    def test_packing_saves_space(self, tmp_path):
        """Bit-packed main codes are smaller than 4-byte delta codes."""
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        db.create_table("t", {"a": DataType.INT64})
        db.bulk_insert("t", [{"a": i % 4} for i in range(10_000)])
        before = db.memory_report()["tables"]["t"]["delta_codes"]
        db.merge("t")
        after = db.memory_report()["tables"]["t"]["main_packed"]
        assert after < before / 4  # 3 bits/code vs 32 bits/code

    def test_report_empty_table(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        report = none_db.memory_report()["tables"]["t"]
        assert report["total"] >= 0
