"""The DurabilityDriver strategy layer: one contract, three stacks."""

import gc
import os
import weakref

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.core.durability import (
    DurabilityDriver,
    LogDriver,
    NoneDriver,
    NvmDriver,
    create_driver,
)
from repro.storage.types import DataType

from tests.conftest import make_config

ROWS = [{"id": i, "name": f"row-{i}", "score": i * 0.25} for i in range(200)]
SCHEMA = {
    "id": DataType.INT64,
    "name": DataType.STRING,
    "score": DataType.FLOAT64,
}


class TestDriverSelection:
    @pytest.mark.parametrize(
        "mode,cls",
        [
            (DurabilityMode.NVM, NvmDriver),
            (DurabilityMode.LOG, LogDriver),
            (DurabilityMode.NONE, NoneDriver),
        ],
    )
    def test_factory_maps_mode_to_driver(self, tmp_path, mode, cls):
        driver = create_driver(str(tmp_path / "db"), make_config(mode))
        assert isinstance(driver, cls)
        assert isinstance(driver, DurabilityDriver)
        assert driver.mode is mode

    @pytest.mark.parametrize(
        "mode,cls",
        [
            (DurabilityMode.NVM, NvmDriver),
            (DurabilityMode.LOG, LogDriver),
            (DurabilityMode.NONE, NoneDriver),
        ],
    )
    def test_database_binds_matching_driver(self, tmp_path, mode, cls):
        db = Database(str(tmp_path / "db"), make_config(mode))
        assert isinstance(db._driver, cls)
        assert db._driver._db is db
        db.close()

    def test_only_nvm_driver_exposes_pool(self, tmp_path):
        for mode in DurabilityMode:
            db = Database(str(tmp_path / mode.value), make_config(mode))
            if mode is DurabilityMode.NVM:
                assert db._pool is not None
            else:
                assert db._pool is None
            db.close()


class TestRestartRoundTrips:
    """Every durable mode survives a clean restart through its driver."""

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_restart_round_trip(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        db.create_table("t", SCHEMA)
        db.bulk_insert("t", ROWS)
        with db.begin() as txn:
            txn.insert("t", {"id": 200, "name": "row-200", "score": 50.0})
        db = db.restart()
        assert db.query("t").count == 201
        assert sorted(db.query("t").column("id")) == list(range(201))
        assert db.verify() == []
        db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_crash_round_trip(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        db.create_table("t", SCHEMA)
        db.bulk_insert("t", ROWS)
        db.crash()
        db = Database(str(tmp_path / "db"), make_config(mode))
        assert db.query("t").count == len(ROWS)
        assert db.verify() == []
        db.close()

    def test_none_mode_forgets_everything(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        db.create_table("t", SCHEMA)
        db.bulk_insert("t", ROWS)
        db = db.restart()
        assert db.table_names == []
        db.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_indexes_survive_restart_via_driver(self, tmp_path, mode):
        from repro.query.predicate import Eq

        db = Database(str(tmp_path / "db"), make_config(mode))
        db.create_table("t", SCHEMA)
        db.create_index("t", "id")
        db.bulk_insert("t", ROWS)
        db = db.restart()
        assert "id" in db.indexes_on("t")
        assert db.query("t", Eq("id", 7)).rows()[0]["name"] == "row-7"
        db.close()


class TestCheckpointContract:
    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.NONE])
    def test_non_log_drivers_reject_checkpoint(self, tmp_path, mode):
        db = Database(str(tmp_path / "db"), make_config(mode))
        with pytest.raises(RuntimeError, match="LOG mode"):
            db.checkpoint()
        db.close()


class TestDriverStats:
    def test_nvm_stats_include_pool(self, nvm_db):
        assert "nvm" in nvm_db.stats()

    def test_log_stats_include_wal(self, log_db):
        assert "wal" in log_db.stats()

    def test_none_stats_have_no_driver_section(self, none_db):
        stats = none_db.stats()
        assert "nvm" not in stats and "wal" not in stats


class TestADeadEngineIsFreedByRefcount:
    """A closed or crashed engine is garbage the moment its last
    reference goes: its driver, its transaction manager and its
    maintenance daemon hold no reference back to it, so nothing waits
    for the cyclic collector (disabled here)."""

    @pytest.fixture(autouse=True)
    def no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("end", ["crash", "close"])
    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_dead_after_del(self, tmp_path, mode, end):
        from repro.query.predicate import Eq

        # ``auto_merge_rows`` starts the daemon; the bound is never met.
        db = Database(str(tmp_path / "db"), make_config(mode, auto_merge_rows=10**9))
        db.create_table("t", SCHEMA)
        db.create_index("t", "id")
        db.bulk_insert("t", ROWS)
        db.merge("t")
        db.insert("t", {"id": 500, "name": "late", "score": 1.0})
        assert db.query("t", Eq("id", 7)).count == 1
        getattr(db, end)()
        alive = weakref.ref(db)
        del db
        assert alive() is None

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"), reason="needs Linux statm"
    )
    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_rss_stays_flat_over_reopen_cycles(self, tmp_path, mode):
        """Before the cycles were cut, 40 reopens of this table left
        12-20 MiB of dead engines resident."""
        from repro.query.predicate import Eq

        def rss_kib() -> int:
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024

        path = str(tmp_path / "db")
        db = Database(path, make_config(mode))
        db.create_table("t", SCHEMA)
        db.create_index("t", "id")
        db.bulk_insert("t", [{**row, "id": row["id"] + 1000} for row in ROWS * 10])
        db.merge("t")
        db.bulk_insert("t", ROWS)
        db.close()
        samples = []
        for cycle in range(50):
            db = Database(path, make_config(mode))
            assert db.query("t", Eq("id", 7)).count == 1
            db.insert("t", {"id": -1 - cycle, "name": "x", "score": 0.0})
            db.crash()
            del db
            samples.append(rss_kib())
        assert samples[-1] - samples[9] < 2048, samples
