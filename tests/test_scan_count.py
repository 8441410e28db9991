"""A scan's count is the number of its visible rows, and computes no
row positions: ``len(result)`` counts the scan's masks, and a mask
becomes positions only when something asks for the rows themselves."""

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.obs import boundary
from repro.query.aggregate import aggregate
from repro.query.predicate import Eq, Lt
from repro.query.scan import ScanResult
from repro.storage import merge
from repro.storage.table import pack_rowref
from repro.storage.types import DataType

from tests.conftest import make_config

SCHEMA = {"k": DataType.INT64, "note": DataType.STRING}


def _rows_counted_one_by_one(table, visible) -> int:
    """Rows of the current generation that ``visible(ref)`` admits."""
    main, delta = table.content
    refs = [pack_rowref(False, i) for i in range(main.row_count)]
    refs += [pack_rowref(True, i) for i in range(delta.row_count)]
    return sum(1 for ref in refs if visible(ref))


def _committed(db: Database, table):
    snapshot = db._manager.last_cid

    def visible(ref: int) -> bool:
        mvcc, index = table.mvcc_for(ref)
        return mvcc.get_begin(index) <= snapshot < mvcc.get_end(index)

    return visible


@pytest.fixture
def no_positions(monkeypatch):
    """Turn on to make computing a scan's positions fail the test."""

    def refuse(result):
        raise AssertionError("a count computed row positions")

    return lambda: monkeypatch.setattr(ScanResult, "positions", refuse)


class TestCountWithoutPositions:
    @pytest.mark.parametrize("mode", [DurabilityMode.NONE, DurabilityMode.NVM])
    def test_own_inserts_and_deletes(self, tmp_path, mode, no_positions, monkeypatch):
        db = Database(str(tmp_path / "db"), make_config(mode))
        db.create_table("t", SCHEMA)
        db.insert_many("t", [{"k": k, "note": f"n{k % 7}"} for k in range(50)])
        db.merge("t")
        db.insert_many("t", [{"k": k, "note": "delta"} for k in range(50, 80)])
        table = db.table("t")
        txn = db.begin()
        for k in range(100, 105):
            txn.insert("t", {"k": k, "note": "own"})
        # Own deletes in both partitions, and of one own insert.
        for ref in txn.query("t", Lt("k", 3)).refs():
            txn.delete("t", ref)
        for key in (60, 61, 102):
            txn.delete("t", txn.query("t", Eq("k", key)).refs()[0])

        no_positions()
        seen = len(txn.query("t"))
        assert seen == aggregate(txn.query("t"), "count")
        assert seen == _rows_counted_one_by_one(
            table, lambda ref: txn.ctx.row_visible(table, ref)
        )
        assert seen == 80 + 5 - 3 - 3
        # Outside the transaction none of its writes show.
        assert db.query("t").count == 80
        assert db.query("t").count == _rows_counted_one_by_one(
            table, _committed(db, table)
        )
        monkeypatch.undo()
        txn.commit()
        assert len(db.query("t").rows()) == db.query("t").count == 79
        db.close()

    def test_beside_an_online_merge(self, tmp_path, no_positions, monkeypatch):
        monkeypatch.setattr(merge, "MERGE_CHUNK_ROWS", 8)
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        db.create_table("t", SCHEMA)
        db.insert_many("t", [{"k": k, "note": f"n{k}"} for k in range(60)])
        with db.begin() as txn:
            for key in (5, 59):
                txn.delete("t", txn.query("t", Eq("k", key)).refs()[0])
        table = db.table("t")
        counts = []

        def hook(kind: str) -> None:
            if kind == "merge_chunk":
                one_by_one = _rows_counted_one_by_one(table, _committed(db, table))
                counts.append((len(db.query("t")), one_by_one))

        no_positions()
        boundary.set_hook(hook)
        try:
            db.merge("t")
        finally:
            boundary.set_hook(None)
        assert len(counts) >= 2  # 60 rows, 8 a chunk: a real fold
        assert counts == [(58, 58)] * len(counts)
        assert len(db.query("t")) == 58
        assert table.generation == 1
        db.close()
