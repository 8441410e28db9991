"""Restart and recovery behaviour per durability mode."""

import tracemalloc

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.nvm.pool import PMemMode
from repro.query.predicate import Eq
from repro.recovery.validator import validate_database
from repro.storage.types import DataType

from tests.conftest import make_config

ITEMS = {"id": DataType.INT64, "name": DataType.STRING}


def _fill(db, n=30):
    db.create_table("items", ITEMS)
    db.bulk_insert("items", [{"id": i, "name": f"n{i % 4}"} for i in range(n)])


class TestCleanRestart:
    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_data_survives(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        _fill(db)
        db = db.restart()
        assert db.query("items").count == 30
        assert db.query("items", Eq("id", 7)).count == 1
        db.close()

    def test_none_mode_loses_data(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        _fill(db)
        db = db.restart()
        assert db.table_names == []
        db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_cids_continue_after_restart(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        _fill(db)
        before = db.last_cid
        db = db.restart()
        assert db.last_cid == before
        db.insert("items", {"id": 99, "name": "after"})
        assert db.last_cid == before + 1
        db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_write_after_restart(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        _fill(db, 5)
        db = db.restart()
        db.insert("items", {"id": 100, "name": "fresh"})
        with db.begin() as txn:
            ref = db.query("items", Eq("id", 2)).refs()[0]
            txn.update("items", ref, {"name": "touched"})
        assert db.query("items", Eq("id", 2)).column("name") == ["touched"]
        assert db.query("items").count == 6
        db.close()

    def test_merge_survives_restart_nvm(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        _fill(db, 40)
        db.merge("items")
        db.insert("items", {"id": 100, "name": "post-merge"})
        db = db.restart()
        table = db.table("items")
        assert table.main_row_count == 40
        assert table.delta_row_count == 1
        assert table.generation == 1
        db.close()

    def test_indexes_survive_restart(self, tmp_path):
        for mode in (DurabilityMode.NVM, DurabilityMode.LOG):
            db = Database(str(tmp_path / mode.value), make_config(mode))
            _fill(db)
            db.create_index("items", "id")
            db = db.restart()
            assert "id" in db.indexes_on("items")
            assert db.query("items", Eq("id", 3)).count == 1
            db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    @pytest.mark.parametrize("batch", [False, True])
    def test_write_before_first_indexed_read_keeps_old_rows(
        self, tmp_path, mode, batch
    ):
        """A write may precede the first indexed read after a reopen; the
        volatile delta index must still pick up every pre-restart row."""
        db = Database(str(tmp_path / "db"), make_config(mode))
        _fill(db)
        db.create_index("items", "id")
        db = db.restart()
        if batch:
            db.insert_many("items", [{"id": 100, "name": "a"}, {"id": 101, "name": "b"}])
        else:
            db.insert("items", {"id": 100, "name": "a"})
        assert db.query("items", Eq("id", 7)).rows() == [{"id": 7, "name": "n3"}]
        assert db.query("items", Eq("id", 100)).rows() == [{"id": 100, "name": "a"}]
        assert db.query("items").count == (32 if batch else 31)
        db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_first_probe_fills_the_delta_index(self, tmp_path, mode):
        """A reopen indexes no delta row; the first probe indexes them all."""
        db = Database(str(tmp_path / "db"), make_config(mode))
        _fill(db)
        db.create_index("items", "id")
        db = db.restart()
        index = db.indexes_on("items")["id"]
        assert index._delta_synced_rows == 0
        assert index.delta_index.entry_count() == 0
        assert db.query("items", Eq("id", 7)).rows() == [{"id": 7, "name": "n3"}]
        assert index._delta_synced_rows == db.table("items").delta.row_count == 30
        assert index.delta_index.entry_count() == 30
        db.close()

    def test_nvm_delta_lookups_rebuild_on_first_use(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.create_table("t", ITEMS)
        db.create_index("t", "id")
        db.bulk_insert("t", [{"id": i, "name": "x"} for i in range(20)])
        db = db.restart()
        delta = db.table("t").delta
        assert all(d._lookup is None for d in delta.dictionaries)
        assert delta.dictionaries[0].code_of(7) == 7
        assert delta.dictionaries[0]._lookup is not None
        assert db.query("t", Eq("id", 7)).count == 1
        db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_empty_table_lookup_roundtrip(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        db.create_table("t", ITEMS)
        db = db.restart()  # reattach with zero entries
        assert all(len(d) == 0 for d in db.table("t").delta.dictionaries)
        db.insert("t", {"id": 1, "name": "a"})
        db = db.restart()
        assert db.table("t").delta.dictionaries[0].code_of(1) == 0
        assert db.query("t", Eq("id", 1)).rows() == [{"id": 1, "name": "a"}]
        db.close()


class TestFirstAnswerIndependentOfMain:
    """The paper's claim, in memory: reopening and answering one indexed
    point read allocates what the in-flight work and the answer need,
    not what the main partition holds. Main's group-key index and
    dictionary are read in place; a DRAM copy of them costs ~24 B a
    row (4.3 MB more at 200k rows than at 20k)."""

    @staticmethod
    def _first_answer_peak(path: str, main_rows: int) -> int:
        config = make_config(DurabilityMode.NVM, extent_size=16 << 20)
        db = Database(path, config)
        db.create_table("items", ITEMS)
        db.create_index("items", "id")
        for lo in range(0, main_rows, 50_000):
            db.insert_many(
                "items",
                [
                    {"id": i, "name": f"n{i % 97}"}
                    for i in range(lo, min(lo + 50_000, main_rows))
                ],
            )
        db.merge("items", online=False)
        db.insert_many(
            "items", [{"id": -1 - i, "name": f"d{i % 97}"} for i in range(2000)]
        )
        db.crash()
        tracemalloc.start()
        try:
            db = Database(path, config)
            rows = db.query("items", Eq("id", main_rows // 2)).rows()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        key = main_rows // 2
        assert rows == [{"id": key, "name": f"n{key % 97}"}]
        db.close()
        return peak

    def test_reopen_and_first_indexed_read(self, tmp_path):
        small = self._first_answer_peak(str(tmp_path / "small"), 20_000)
        large = self._first_answer_peak(str(tmp_path / "large"), 200_000)
        assert large - small < 256 * 1024, (small, large)


class TestCrashRecovery:
    def test_nvm_committed_survive_crash(self, tmp_path):
        cfg = make_config(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
        db = Database(str(tmp_path / "db"), cfg)
        _fill(db)
        db.crash()
        db = Database(str(tmp_path / "db"), cfg)
        assert db.query("items").count == 30
        assert not db.last_recovery.txns_rolled_back
        db.close()

    def test_nvm_inflight_rolled_back(self, tmp_path):
        cfg = make_config(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
        db = Database(str(tmp_path / "db"), cfg)
        _fill(db, 10)
        txn = db.begin()
        txn.insert("items", {"id": 999, "name": "ghost"})
        ref = db.query("items", Eq("id", 3)).refs()[0]
        txn.delete("items", ref)
        db.crash()
        db = Database(str(tmp_path / "db"), cfg)
        assert db.last_recovery.txns_rolled_back == 1
        assert db.query("items").count == 10  # delete rolled back too
        assert db.query("items", Eq("id", 999)).count == 0
        assert db.query("items", Eq("id", 3)).count == 1
        # The previously locked row is writable again.
        with db.begin() as txn:
            txn.delete("items", db.query("items", Eq("id", 3)).refs()[0])
        assert db.query("items").count == 9
        db.close()

    def test_log_committed_survive_crash(self, tmp_path):
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
        db = Database(str(tmp_path / "db"), cfg)
        _fill(db)
        db.crash()
        db = Database(str(tmp_path / "db"), cfg)
        assert db.query("items").count == 30
        db.close()

    def test_log_group_commit_may_lose_tail_but_stays_consistent(self, tmp_path):
        cfg = make_config(DurabilityMode.LOG, group_commit_size=10)
        db = Database(str(tmp_path / "db"), cfg)
        db.create_table("items", ITEMS)
        for i in range(25):
            db.insert("items", {"id": i, "name": "x"})
        db.crash()
        db = Database(str(tmp_path / "db"), cfg)
        count = db.query("items").count
        # Whole groups of 10 are durable; the open group may be lost.
        assert count == 20
        problems = validate_database(db._tables_by_id.values(), db.last_cid)
        assert not problems
        db.close()

    def test_checkpoint_bounds_replay(self, tmp_path):
        cfg = make_config(DurabilityMode.LOG)
        db = Database(str(tmp_path / "db"), cfg)
        _fill(db, 20)
        db.checkpoint()
        db.insert("items", {"id": 777, "name": "tail"})
        db.crash()
        db = Database(str(tmp_path / "db"), cfg)
        # Replay only covers records after the checkpoint LSN.
        assert db.last_recovery.log_records_replayed <= 3
        assert db.last_recovery.checkpoint_bytes > 0
        assert db.query("items").count == 21
        db.close()

    def test_double_crash_recovery_idempotent(self, tmp_path):
        cfg = make_config(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
        db = Database(str(tmp_path / "db"), cfg)
        _fill(db, 8)
        txn = db.begin()
        txn.insert("items", {"id": 555, "name": "ghost"})
        db.crash()
        db = Database(str(tmp_path / "db"), cfg)
        db.crash()  # crash again right after recovery
        db = Database(str(tmp_path / "db"), cfg)
        assert db.query("items").count == 8
        problems = validate_database(db._tables_by_id.values(), db.last_cid)
        assert not problems
        db.close()

    def test_recovery_report_phases(self, tmp_path):
        for mode, expected in [
            (
                DurabilityMode.NVM,
                {"pool_open", "catalog_attach", "txn_fixup", "finalize"},
            ),
            (
                DurabilityMode.LOG,
                {"checkpoint_load", "log_replay", "log_reopen", "index_rebuild"},
            ),
        ]:
            db = Database(str(tmp_path / mode.value), make_config(mode))
            _fill(db, 5)
            db = db.restart()
            phases = {name for name, _ in db.last_recovery.phases}
            assert phases == expected, mode
            # Every phase is a real measured span under the report root.
            assert db.last_recovery.span.finished
            assert db.last_recovery.total_seconds >= db.last_recovery.span.child_seconds()
            db.close()
