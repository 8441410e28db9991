"""Edge cases of the engine facade that the main suites don't touch."""

import gc
import os

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database, _coerce_schema
from repro.fault.inject import SimulatedPowerFailure
from repro.query.predicate import Eq
from repro.replication import WalShipper
from repro.storage.schema import ColumnDef, Schema, SchemaError
from repro.storage.types import DataType
from repro.txn import txn_table
from repro.txn.errors import TooManyActiveTransactions
from repro.wal.records import RecordTooLarge

from tests.conftest import make_config, tree, write_sharded_layout


class TestSchemaCoercion:
    def test_dict_schema(self):
        schema = _coerce_schema({"a": DataType.INT64})
        assert isinstance(schema, Schema)
        assert schema.names == ["a"]

    def test_schema_passthrough(self):
        schema = Schema([ColumnDef("a", DataType.INT64)])
        assert _coerce_schema(schema) is schema


    def test_unknown_dtype_names_column_and_accepted_types(self):
        with pytest.raises(SchemaError) as err:
            _coerce_schema({"ok": DataType.INT64, "price": "decimal"})
        message = str(err.value)
        assert "'price'" in message and "'decimal'" in message
        for dtype in DataType:
            assert f"DataType.{dtype.name}" in message
        with pytest.raises(SchemaError):
            Schema([ColumnDef("a", None)])

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_rejected_schema_changes_nothing(self, tmp_path, mode):
        """The typed error fires before the driver allocates or logs."""
        path = str(tmp_path / "db")
        db = Database(path, make_config(mode))
        db.create_table("keep", {"a": DataType.INT64})
        db.insert("keep", {"a": 1})
        wal = db._driver.wal
        records_before = wal.records_written if wal is not None else None
        with pytest.raises(SchemaError, match="decimal"):
            db.create_table("t", {"a": "decimal"})
        with pytest.raises(SchemaError, match="a schema is a"):
            db.create_table("t", [("a", DataType.INT64)])
        assert db.table_names == ["keep"]
        if wal is not None:
            assert wal.records_written == records_before
        db.create_table("t", {"a": DataType.FLOAT64})  # the name is still free
        db.close()
        db = Database(path, make_config(mode))
        assert db.table_names == ["keep", "t"]
        assert db.verify() == []
        assert db.query("keep").count == 1
        db.close()


class TestCheckpointRules:
    def test_checkpoint_rejected_in_nvm_mode(self, nvm_db):
        with pytest.raises(RuntimeError, match="LOG mode"):
            nvm_db.checkpoint()

    def test_checkpoint_runs_beside_an_active_txn(self, log_db):
        log_db.create_table("t", {"a": DataType.INT64})
        txn = log_db.begin()
        txn.insert("t", {"a": 1})
        assert log_db.checkpoint() > 0
        txn.abort()
        assert log_db.query("t").count == 0

    def test_empty_database_checkpoint(self, log_db):
        assert log_db.checkpoint() > 0
        db2 = log_db.restart()
        assert db2.table_names == []
        db2.close()
        log_db._closed = True


class TestTransactionHandle:
    def test_tid_exposed(self, none_db):
        txn = none_db.begin()
        assert txn.tid > 0
        txn.abort()

    def test_double_commit_via_context_manager_safe(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        with none_db.begin() as txn:
            txn.insert("t", {"a": 1})
            txn.commit()  # explicit commit inside the with block
        assert none_db.query("t").count == 1

    def test_abort_inside_context_manager(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        with none_db.begin() as txn:
            txn.insert("t", {"a": 1})
            txn.abort()
        assert none_db.query("t").count == 0

    def test_slot_exhaustion_at_engine_level(self, tmp_path, monkeypatch):
        monkeypatch.setattr(txn_table, "TXN_SLOTS", 3)
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        handles = [db.begin() for _ in range(3)]
        with pytest.raises(TooManyActiveTransactions):
            db.begin()
        for handle in handles:
            handle.abort()
        db.begin().abort()  # slots recycled
        db.close()


class TestRowValidation:
    def test_insert_type_error_does_not_leak_state(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        txn = none_db.begin()
        with pytest.raises(TypeError):
            txn.insert("t", {"a": "string"})
        txn.insert("t", {"a": 1})  # txn still usable
        txn.commit()
        assert none_db.query("t").count == 1

    def test_bulk_insert_validates_all_rows_first(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        with pytest.raises(TypeError):
            none_db.bulk_insert("t", [{"a": 1}, {"a": "bad"}])
        # Validation failed before anything was loaded.
        assert none_db.query("t").count == 0

    def test_unknown_column_in_insert(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        txn = none_db.begin()
        with pytest.raises(KeyError):
            txn.insert("t", {"ghost": 1})
        txn.abort()

    @pytest.mark.parametrize(
        "method,payload",
        [
            ("insert", {"a": "x"}),
            ("insert", {"nope": 1}),
            ("insert_many", [{"a": 1}, {"a": "x"}]),
            ("bulk_insert", [{"a": 1}, {"nope": 1}]),
        ],
    )
    def test_rejected_autocommit_leaves_no_transaction(
        self, any_db, method, payload
    ):
        any_db.create_table("t", {"a": DataType.INT64})
        with pytest.raises((TypeError, KeyError)):
            getattr(any_db, method)("t", payload)
        assert len(any_db._manager.active) == 0
        assert any_db.query("t").count == 0
        assert any_db.verify() == []

    def test_rejected_inserts_do_not_exhaust_txn_slots(self, any_db):
        any_db.create_table("t", {"a": DataType.INT64})
        for _ in range(300):  # more than the 256 transaction slots
            with pytest.raises(TypeError):
                any_db.insert("t", {"a": "x"})
        any_db.insert("t", {"a": 1})
        if any_db.mode is DurabilityMode.LOG:
            assert any_db.checkpoint() > 0
        assert any_db.query("t").column("a") == [1]

    def test_autocommit_rolls_back_published_rows(self, any_db, monkeypatch):
        any_db.create_table("t", {"a": DataType.INT64})

        def failing(table, refs):
            raise OSError("injected: index upkeep failed after the publish")

        monkeypatch.setattr(any_db, "_index_new_rows", failing)
        with pytest.raises(OSError, match="injected"):
            any_db.insert_many("t", [{"a": 1}, {"a": 2}])
        monkeypatch.undo()
        assert (len(any_db._manager.active), any_db._manager.aborts) == (0, 1)
        assert any_db.bulk_insert("t", [{"a": 3}]) == any_db.last_cid
        assert any_db.query("t").column("a") == [3]
        assert any_db.verify() == []

    def test_autocommit_never_aborts_on_power_failure(self, none_db, monkeypatch):
        """``SimulatedPowerFailure`` is a ``BaseException``: nothing —
        not even a rollback — may execute after the cut."""
        none_db.create_table("t", {"a": DataType.INT64})

        def power_cut(ctx):
            raise SimulatedPowerFailure("injected")

        monkeypatch.setattr(none_db._manager, "commit", power_cut)
        with pytest.raises(SimulatedPowerFailure):
            none_db.insert("t", {"a": 1})
        monkeypatch.undo()
        assert (len(none_db._manager.active), none_db._manager.aborts) == (1, 0)


class TestRecordTooLarge:
    """A row the log cannot frame is rejected before any ack, with not
    one byte in the file, and leaves nothing behind that replay — which
    never hears of it — could trip over."""

    SCHEMA = {"id": DataType.INT64, "v": DataType.STRING}
    HUGE = "x" * 4096

    def _db(self, tmp_path):
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
        db = Database(str(tmp_path / "db"), cfg)
        db.create_table("t", self.SCHEMA)
        # Shrink the bound instead of allocating 64 MiB rows.
        db._driver.wal._max_record_bytes = 512
        return db, cfg

    def test_rejection_leaves_nothing_behind(self, tmp_path):
        db, _ = self._db(tmp_path)
        db.insert("t", {"id": 1, "v": "ok"})
        size = os.path.getsize(db._driver.log_path)
        with pytest.raises(RecordTooLarge):
            db.insert("t", {"id": 2, "v": self.HUGE})
        assert db.verify() == []  # no row left locked
        assert len(db._manager.active) == 0
        assert db._driver.wal._staged == {}
        assert db._driver.wal.flush_to_os() == size
        assert db.query("t").column("id") == [1]
        db.close()

    def test_acked_writes_around_a_rejection_recover_exactly(self, tmp_path):
        """The rejected row occupies a delta position the log never
        mentions; later records name their own, so nothing shifts."""
        db, cfg = self._db(tmp_path)
        db.insert("t", {"id": 1, "v": "a"})
        with pytest.raises(RecordTooLarge):
            db.insert("t", {"id": 2, "v": self.HUGE})
        db.insert("t", {"id": 3, "v": "c"})
        db.insert("t", {"id": 4, "v": "d"})
        with db.begin() as txn:
            txn.delete("t", db.query("t", Eq("id", 3)).refs()[0])
        live = sorted(db.query("t").column("id"))
        assert live == [1, 4]
        db.crash()
        db = Database(db.path, cfg)
        assert sorted(db.query("t").column("id")) == live
        assert db.verify() == []
        db.close()

    def test_transaction_survives_a_rejected_statement(self, tmp_path):
        """Only the statement is undone: the transaction commits what it
        did before and after, live and recovered alike."""
        db, cfg = self._db(tmp_path)
        txn = db.begin()
        txn.insert("t", {"id": 1, "v": "first"})
        with pytest.raises(RecordTooLarge):
            txn.insert("t", {"id": 2, "v": self.HUGE})
        assert txn.is_active
        assert sorted(txn.query("t").column("id")) == [1]
        txn.insert("t", {"id": 3, "v": "third"})
        txn.commit()
        assert sorted(db.query("t").column("id")) == [1, 3]
        assert db.verify() == []
        db.crash()
        db = Database(db.path, cfg)
        assert sorted(db.query("t").column("id")) == [1, 3]
        assert db.verify() == []
        db.close()

    def test_rejected_statement_is_unrecorded_on_nvm(self, tmp_path):
        """An NVM primary's ship log rejects the same way; the durable
        undo record goes too, so a crash inside the later commit cannot
        roll the rejected rows forward."""
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.create_table("t", self.SCHEMA)
        shipper = WalShipper(db)
        db._driver.wal._max_record_bytes = 512
        txn = db.begin()
        txn.insert("t", {"id": 1, "v": "first"})
        with pytest.raises(RecordTooLarge):
            txn.insert("t", {"id": 2, "v": self.HUGE})
        assert len(db._manager._txn_table.records(txn.ctx.slot)) == 1
        txn.commit()
        assert db.query("t").column("id") == [1]
        assert db.verify() == []
        shipper.stop()
        db.close()


class TestReopenSafety:
    def test_close_is_idempotent(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.close()
        db.close()

    def test_crash_after_close_is_noop(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        db.close()
        db.crash()

    def test_reopen_same_directory_twice(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.NVM)
        db = Database(path, cfg)
        db.create_table("t", {"a": DataType.INT64})
        db.close()
        for _ in range(3):
            db = Database(path, cfg)
            assert db.table_names == ["t"]
            db.close()

    @pytest.mark.parametrize("mode", list(DurabilityMode), ids=lambda m: m.value)
    def test_sharded_directory_is_refused(self, tmp_path, mode):
        """A directory the removed sharded engine created holds its data
        under ``shard-NNNN/``: opening it must fail, naming the manifest,
        and never start an empty engine beside the old data."""
        path = str(tmp_path / "db")
        write_sharded_layout(path, mode)
        files = tree(path)
        with pytest.raises(ValueError, match="shards.json"):
            Database(path, make_config(mode))
        assert tree(path) == files

    @pytest.mark.parametrize("mode", list(DurabilityMode), ids=lambda m: m.value)
    def test_bare_shard_manifest_is_refused(self, tmp_path, mode):
        """A manifest with no shard directory yet (the sharded engine
        stopped between the two) is refused the same way."""
        path = str(tmp_path / "db")
        os.makedirs(path)
        with open(os.path.join(path, "shards.json"), "w") as f:
            f.write('{"shards": 2, "format": 1}')
        with pytest.raises(ValueError, match="shards.json"):
            Database(path, make_config(mode))
        assert tree(path) == ["shards.json"]

    def test_log_mode_empty_directory(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
        assert db.last_recovery.log_records_replayed == 0
        assert db.table_names == []
        db.close()


class TestResourceSafety:
    """Leaked-handle and double-close regressions (driver refactor)."""

    @staticmethod
    def _open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    def test_close_after_crash_does_not_mark_pool_clean(self, tmp_path):
        path = str(tmp_path / "db")
        cfg = make_config(DurabilityMode.NVM)
        db = Database(path, cfg)
        db.create_table("t", {"a": DataType.INT64})
        db.bulk_insert("t", [{"a": i} for i in range(50)])
        db.crash()
        db.close()  # must be a no-op, not an orderly (clean) shutdown
        extent0 = os.path.join(path, "pmem", "extent_0000.pm")
        with open(extent0, "rb") as f:
            f.seek(48)  # _OFF_CLEAN
            assert int.from_bytes(f.read(8), "little") == 0
        db2 = Database(path, cfg)
        assert db2.query("t").count == 50
        assert db2.verify() == []
        db2.close()

    def test_corrupt_pool_open_releases_all_handles(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path, make_config(DurabilityMode.NVM))
        db.create_table("t", {"a": DataType.INT64})
        db.close()
        extent0 = os.path.join(path, "pmem", "extent_0000.pm")
        with open(extent0, "r+b") as f:
            f.write(b"\xde\xad\xbe\xef\xde\xad\xbe\xef")  # smash the magic
        # Settle cycles from earlier tests first: a gen-2 collection
        # firing mid-loop would release their deferred mmap handles and
        # skew the count we are asserting on.
        gc.collect()
        before = self._open_fds()
        for _ in range(5):
            with pytest.raises(Exception, match="magic|corrupt"):
                Database(path, make_config(DurabilityMode.NVM))
        gc.collect()
        assert self._open_fds() == before

    def test_missing_catalog_root_releases_pool(self, tmp_path):
        from repro.nvm.pool import PMemPool

        pool_dir = str(tmp_path / "db" / "pmem")
        os.makedirs(pool_dir)
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024)
        pool.close()  # valid pool, but no catalog root was ever published
        before = self._open_fds()
        with pytest.raises(ValueError, match="no catalog root"):
            Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        assert self._open_fds() == before


class TestMergeEdges:
    def test_merge_unknown_table(self, none_db):
        with pytest.raises(KeyError):
            none_db.merge("ghost")

    def test_merge_empty_table(self, any_db):
        any_db.create_table("t", {"a": DataType.INT64})
        any_db.merge("t")
        assert any_db.table("t").generation == 1
        assert any_db.query("t").count == 0

    def test_repeated_merges(self, any_db):
        any_db.create_table("t", {"a": DataType.INT64})
        for generation in range(1, 4):
            any_db.bulk_insert("t", [{"a": generation}])
            any_db.merge("t")
            assert any_db.table("t").generation == generation
        assert sorted(any_db.query("t").column("a")) == [1, 2, 3]
