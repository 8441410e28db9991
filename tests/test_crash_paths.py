"""Regression tests for crash-path bugs and maintenance-crash coverage.

* A torn-tail LOG crash must not make post-recovery appends land after
  garbage where replay can never reach them (pre-fix: the writer
  reopened in append mode at the physical end of file).
* A power failure at any point inside ``merge()`` / ``checkpoint()``
  must be logically invisible, for every durability driver, with STRICT
  pmem simulation in NVM mode.
"""

import shutil

import pytest

from tests.conftest import make_config
from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.fault.inject import CrashPointInjector, SimulatedPowerFailure
from repro.nvm.pool import PMemMode
from repro.query.predicate import Eq
from repro.storage.types import DataType

SCHEMA = {"key": DataType.INT64, "note": DataType.STRING}


class TestTornTailRecoveryAppend:
    @pytest.mark.parametrize("survivor", [0.0, 0.5, 1.0])
    def test_appends_after_torn_crash_are_replayable(self, tmp_path, survivor):
        """Records appended after recovering from a torn tail must
        survive the *next* restart.

        Pre-fix, recovery decoded past the torn tail correctly but left
        the garbage bytes in place; the reopened writer appended new
        records after them, where replay (which stops at the garbage)
        could never reach — silently losing every post-recovery commit.
        """
        config = make_config(DurabilityMode.LOG, group_commit_size=1)
        path = str(tmp_path / "db")
        db = Database(path, config)
        db.create_table("kv", SCHEMA)
        db.insert_many("kv", [{"key": k, "note": f"n{k}"} for k in range(8)])
        txn = db.begin()  # in flight at the crash: must roll back
        txn.insert("kv", {"key": 100, "note": "inflight"})
        db.crash(survivor_fraction=survivor, seed=5)

        db2 = Database(path, config)
        assert db2.verify() == []
        assert {r["key"] for r in db2.query("kv").rows()} == set(range(8))
        db2.insert("kv", {"key": 50, "note": "after-crash"})
        db2.close()

        db3 = Database(path, config)
        assert db3.verify() == []
        assert {r["key"] for r in db3.query("kv").rows()} == (
            set(range(8)) | {50}
        )
        db3.close()


class TestBulkLoadCidOrdering:
    def test_every_point_inside_bulk_insert_is_safe(self, tmp_path):
        """Sweep every persistence boundary inside ``bulk_insert``.

        Found by the crash-point sweep: bulk loads bypass the
        transaction table, so the commit id must be durable before the
        begin-vector publish. Pre-fix, the counter advanced *after* the
        publish; a crash in between recovered rows stamped with a
        commit id beyond the engine's ``last_cid``.
        """
        config = _maintenance_config(DurabilityMode.NVM)
        base = {k: f"n{k}" for k in range(4)}
        batch = [{"key": 100 + i, "note": f"b{i}"} for i in range(6)]

        def build(path: str) -> Database:
            db = Database(path, config)
            db.create_table("kv", SCHEMA)
            db.insert_many("kv", [{"key": k, "note": v} for k, v in base.items()])
            return db

        db = build(str(tmp_path / "count"))
        with CrashPointInjector() as counter:
            db.bulk_insert("kv", batch)
        total = counter.events
        db.close()
        assert total > 0

        with_batch = {**base, **{r["key"]: r["note"] for r in batch}}
        for point in range(1, total + 1):
            path = str(tmp_path / f"pt{point}")
            db = build(path)
            with CrashPointInjector(crash_at=point):
                with pytest.raises(SimulatedPowerFailure):
                    db.bulk_insert("kv", batch)
                db.crash(seed=point)
            recovered = Database(path, config)
            assert recovered.verify() == [], f"invariants broken at {point}"
            found = {r["key"]: r["note"] for r in recovered.query("kv").rows()}
            assert found in (base, with_batch), f"torn bulk load at {point}"
            recovered.close()
            shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Crashes inside maintenance operations
# ----------------------------------------------------------------------


def _build(path: str, config) -> tuple:
    """Deterministic database with main rows, delta rows, updates and a
    delete — so merge() actually has invalidations to fold."""
    db = Database(path, config)
    db.create_table("kv", SCHEMA)
    db.insert_many("kv", [{"key": k, "note": f"n{k}"} for k in range(8)])
    txn = db.begin()
    ref = txn.query("kv", None).refs()[0]
    txn.update("kv", ref, {"note": "updated"})
    txn.commit()
    txn = db.begin()
    ref = txn.query("kv", None).refs()[-1]
    txn.delete("kv", ref)
    txn.commit()
    expected = {row["key"]: row["note"] for row in db.query("kv").rows()}
    return db, expected


def _maintenance_config(mode: DurabilityMode):
    overrides = {"group_commit_size": 1}
    if mode is DurabilityMode.NVM:
        overrides["pmem_mode"] = PMemMode.STRICT
    return make_config(mode, **overrides)


def _sweep_operation(tmp_path, mode, survivor, operation) -> None:
    """Kill ``operation`` at every persistence boundary; recovered state
    must be unchanged and consistent every time."""
    config = _maintenance_config(mode)

    db, expected = _build(str(tmp_path / "count"), config)
    with CrashPointInjector() as counter:
        operation(db)
    total = counter.events
    db.close()

    assert total > 0  # merge boundary events fire in every mode

    for point in range(1, total + 1):
        path = str(tmp_path / f"pt{point}")
        db, expected = _build(path, config)
        with CrashPointInjector(crash_at=point):
            with pytest.raises(SimulatedPowerFailure):
                operation(db)
            db.crash(survivor_fraction=survivor, seed=point)
        recovered = Database(path, config)
        assert recovered.verify() == [], f"invariants broken at point {point}"
        if mode is DurabilityMode.NONE:
            # Nothing persists: a crash at any boundary loses the lot.
            assert recovered.table_names == []
        else:
            found = {r["key"]: r["note"] for r in recovered.query("kv").rows()}
            assert found == expected, f"state changed by crashed op at {point}"
        recovered.close()
        shutil.rmtree(path, ignore_errors=True)


class TestCrashDuringMerge:
    @pytest.mark.parametrize(
        "mode,survivor",
        [
            (DurabilityMode.NVM, 0.0),
            (DurabilityMode.NVM, 0.5),
            (DurabilityMode.NVM, 1.0),
            (DurabilityMode.LOG, 0.0),
            (DurabilityMode.LOG, 1.0),
            (DurabilityMode.NONE, 0.0),
        ],
        ids=lambda v: str(getattr(v, "value", v)),
    )
    def test_every_point_inside_merge_is_safe(self, tmp_path, mode, survivor):
        _sweep_operation(tmp_path, mode, survivor, lambda db: db.merge("kv"))


class TestCrashDuringCheckpoint:
    @pytest.mark.parametrize("survivor", [0.0, 1.0])
    def test_every_point_inside_checkpoint_is_safe(self, tmp_path, survivor):
        _sweep_operation(
            tmp_path,
            DurabilityMode.LOG,
            survivor,
            lambda db: db.checkpoint(),
        )

    def test_checkpoint_requires_log_mode(self, tmp_path):
        db, _ = _build(str(tmp_path / "db"), _maintenance_config(DurabilityMode.NVM))
        with pytest.raises(RuntimeError):
            db.checkpoint()
        db.close()


# ----------------------------------------------------------------------
# Index declarations
# ----------------------------------------------------------------------


class TestIndexDeclarationsSurviveCrashes:
    @pytest.mark.parametrize(
        "mode", [DurabilityMode.NVM, DurabilityMode.LOG], ids=lambda m: m.value
    )
    def test_every_point_inside_create_index(self, tmp_path, mode):
        """After the reopen the index is there exactly when
        ``create_index`` returned, and it answers as a scan does."""
        config = _maintenance_config(mode)
        db, expected = _build(str(tmp_path / "count"), config)
        with CrashPointInjector() as counter:
            db.create_index("kv", "key")
        total = counter.events
        db.close()
        assert total > 0

        for point in range(1, total + 2):  # the last one crashes after it
            path = str(tmp_path / f"pt{point}")
            db, expected = _build(path, config)
            with CrashPointInjector(crash_at=point):
                try:
                    db.create_index("kv", "key")
                    returned = True
                except SimulatedPowerFailure:
                    returned = False
            db.crash(survivor_fraction=0.0, seed=point)
            assert returned == (point > total)
            recovered = Database(path, config)
            assert recovered.verify() == [], f"invariants broken at point {point}"
            declared = list(recovered.indexes_on("kv"))
            assert declared == (["key"] if returned else []), f"at point {point}"
            found = {r["key"]: r["note"] for r in recovered.query("kv").rows()}
            assert found == expected
            for key, note in expected.items():
                rows = recovered.query("kv", Eq("key", key)).rows()
                assert rows == [{"key": key, "note": note}]
            recovered.close()
            shutil.rmtree(path, ignore_errors=True)

    def test_an_index_on_a_clean_table_rides_the_next_link(self, tmp_path):
        """Checkpoint, index the table the link left clean, checkpoint
        again: the second link carries the table's segment forward and
        still declares the index."""
        config = _maintenance_config(DurabilityMode.LOG)
        path = str(tmp_path / "db")
        db, expected = _build(path, config)
        db.checkpoint()
        segments = dict(db._driver._segment_map)
        db.create_index("kv", "key")
        db.checkpoint()
        assert db._driver._segment_map == segments  # carried, not rewritten
        db.crash(seed=3)
        recovered = Database(path, config)
        try:
            assert recovered.last_recovery.log_records_replayed == 0
            assert list(recovered.indexes_on("kv")) == ["key"]
            assert recovered.query("kv", Eq("key", 2)).rows() == [
                {"key": 2, "note": expected[2]}
            ]
        finally:
            recovered.close()

    @pytest.mark.parametrize(
        "mode", [DurabilityMode.NVM, DurabilityMode.LOG], ids=lambda m: m.value
    )
    def test_a_recreated_table_has_none_of_the_dropped_ones_indexes(
        self, tmp_path, mode
    ):
        config = _maintenance_config(mode)
        path = str(tmp_path / "db")
        db, _ = _build(path, config)
        db.create_index("kv", "key")
        db.create_index("kv", "note")
        if mode is DurabilityMode.LOG:
            db.checkpoint()  # the declarations are in the manifest too
        db.drop_table("kv")
        db.create_table("kv", SCHEMA)
        db.insert("kv", {"key": 1, "note": "new"})
        assert db.indexes_on("kv") == {}
        db.crash(seed=4)
        recovered = Database(path, config)
        try:
            assert recovered.indexes_on("kv") == {}
            assert recovered.query("kv").rows() == [{"key": 1, "note": "new"}]
        finally:
            recovered.close()
