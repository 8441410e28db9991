"""Hash-sharded engine: routing, fan-out, parallel recovery, failure injection."""

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.core.sharding import ShardedEngine, partition_of
from repro.query.predicate import Between, Eq
from repro.recovery.report import RecoveryReport
from repro.storage.types import DataType

from tests.conftest import make_config

SCHEMA = {"id": DataType.INT64, "name": DataType.STRING}


def rows(n, start=0):
    return [{"id": i, "name": f"row-{i}"} for i in range(start, start + n)]


def make_engine(tmp_path, mode=DurabilityMode.NVM, shards=4, **overrides):
    return ShardedEngine(
        str(tmp_path / "eng"), make_config(mode, shards=shards, **overrides)
    )


class TestPartitioning:
    def test_deterministic_and_in_range(self):
        for value in (0, 1, -7, 2**40, 3.5, -0.0, "abc", "", None, True, False):
            first = partition_of(value, 4)
            assert 0 <= first < 4
            assert partition_of(value, 4) == first

    def test_single_shard_short_circuits(self):
        assert partition_of("anything", 1) == 0

    def test_unsupported_key_type(self):
        with pytest.raises(TypeError, match="partition key"):
            partition_of([1, 2], 4)

    def test_int_keys_spread_across_shards(self):
        buckets = {partition_of(i, 4) for i in range(100)}
        assert buckets == {0, 1, 2, 3}

    def test_database_rejects_multi_shard_config(self, tmp_path):
        with pytest.raises(ValueError, match="open_engine"):
            Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM, shards=4))


class TestManifest:
    def test_shard_count_fixed_at_creation(self, tmp_path):
        eng = make_engine(tmp_path, shards=4)
        eng.close()
        with pytest.raises(ValueError, match="fixed at creation"):
            make_engine(tmp_path, shards=2)

    def test_reopen_with_default_config_keeps_count(self, tmp_path):
        eng = make_engine(tmp_path, shards=4)
        eng.close()
        # shards=1 (the default) means "whatever the manifest says".
        reopened = make_engine(tmp_path, shards=1)
        assert reopened.num_shards == 4
        reopened.close()

    def test_partition_key_persisted(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA, partition_key="name")
        eng = eng.restart()
        assert eng.partition_key("t") == "name"
        eng.close()

    def test_partition_key_defaults_to_first_column(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA)
        assert eng.partition_key("t") == "id"
        eng.close()

    def test_bad_partition_key_rejected(self, tmp_path):
        eng = make_engine(tmp_path)
        with pytest.raises(ValueError, match="not a column"):
            eng.create_table("t", SCHEMA, partition_key="ghost")
        eng.close()


class TestRoutingAndQueries:
    def test_rows_land_on_their_hash_shard(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA)
        eng.bulk_insert("t", rows(500))
        for shard_index, shard in enumerate(eng.shards):
            for row_id in shard.query("t").column("id"):
                assert partition_of(row_id, eng.num_shards) == shard_index
        eng.close()

    def test_query_fans_out_and_merges(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA)
        eng.bulk_insert("t", rows(500))
        result = eng.query("t")
        assert result.count == len(result) == 500
        assert sorted(result.column("id")) == list(range(500))
        window = eng.query("t", Between("id", 100, 109))
        assert sorted(r["id"] for r in window.rows()) == list(range(100, 110))
        cols = eng.query("t", Eq("id", 42)).columns()
        assert cols == {"id": [42], "name": ["row-42"]}
        eng.close()

    def test_point_lookup_routes_to_one_shard(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA)
        eng.insert("t", {"id": 99, "name": "solo"})
        owner = eng.shard_for("t", 99)
        assert owner.query("t", Eq("id", 99)).count == 1
        others = [s for s in eng.shards if s is not owner]
        assert all(s.query("t").count == 0 for s in others)
        eng.close()

    def test_shard_local_transactions(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA)
        shard = eng.shard_for("t", 5)
        with shard.begin() as txn:
            txn.insert("t", {"id": 5, "name": "txn-row"})
        assert eng.query("t", Eq("id", 5)).count == 1
        eng.close()


class TestLifecycle:
    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_restart_round_trip(self, tmp_path, mode):
        eng = make_engine(tmp_path, mode=mode)
        eng.create_table("t", SCHEMA)
        eng.bulk_insert("t", rows(400))
        eng = eng.restart()
        assert eng.query("t").count == 400
        assert eng.verify() == []
        report = eng.last_recovery
        assert isinstance(report, RecoveryReport)
        assert report.shards == len(report.shard_reports) == 4
        assert report.parallel_speedup > 0
        # Counters are sums over the shards; every shard holds the table.
        assert report.tables == 1
        if mode is DurabilityMode.LOG:
            assert report.rows_recovered == 400
        assert report.span.render_tree().count(f"recovery:{mode.value}") == 4
        eng.close()

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_crash_recovery_loses_no_committed_rows(self, tmp_path, mode):
        eng = make_engine(tmp_path, mode=mode)
        eng.create_table("t", SCHEMA)
        eng.bulk_insert("t", rows(400))
        eng.crash(seed=11)
        eng = make_engine(tmp_path, mode=mode)
        assert sorted(eng.query("t").column("id")) == list(range(400))
        assert eng.verify() == []
        eng.close()

    def test_double_close_and_close_after_crash(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA)
        eng.crash()
        eng.close()
        eng.close()

    def test_ddl_fans_out(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA)
        eng.create_index("t", "id")
        assert all("id" in s.indexes_on("t") for s in eng.shards)
        eng.bulk_insert("t", rows(100))
        eng.merge("t")
        assert all(s.table("t").generation == 1 for s in eng.shards)
        eng.drop_table("t")
        assert eng.table_names == []
        with pytest.raises(KeyError, match="no table"):
            eng.partition_key("t")
        eng.close()

    def test_checkpoint_fans_out(self, tmp_path):
        eng = make_engine(tmp_path, mode=DurabilityMode.LOG)
        eng.create_table("t", SCHEMA)
        eng.bulk_insert("t", rows(100))
        assert eng.checkpoint() > 0
        eng.crash()
        eng = make_engine(tmp_path, mode=DurabilityMode.LOG)
        assert eng.query("t").count == 100
        assert eng.last_recovery.phase_seconds("checkpoint_load") > 0
        eng.close()

    def test_stats_aggregate(self, tmp_path):
        eng = make_engine(tmp_path)
        eng.create_table("t", SCHEMA)
        eng.bulk_insert("t", rows(100))
        stats = eng.stats()
        assert stats["shards"] == 4
        assert len(stats["per_shard"]) == 4
        assert eng.logical_bytes() == sum(
            s.logical_bytes() for s in eng.shards
        )
        eng.close()


class TestCrashMidBulkInsert:
    """A crash between per-shard sub-batches must never lose committed
    data, and every surviving shard must stay individually consistent."""

    @pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
    def test_committed_batches_survive_partial_fanout(
        self, tmp_path, mode, monkeypatch
    ):
        eng = make_engine(tmp_path, mode=mode)
        eng.create_table("t", SCHEMA)
        committed = rows(300)
        eng.bulk_insert("t", committed)

        # Fail the fan-out on one shard mid-batch: its sub-batch never
        # commits while the other shards' sub-batches do.
        victim = eng.shards[2]
        original = Database.insert_many

        def failing_bulk_insert(self, table_name, batch):
            if self is victim:
                raise OSError("injected: power lost on shard 2")
            return original(self, table_name, batch)

        monkeypatch.setattr(Database, "insert_many", failing_bulk_insert)
        with pytest.raises(OSError, match="injected"):
            eng.bulk_insert("t", rows(300, start=300))
        monkeypatch.undo()

        eng.crash(seed=3)
        eng = make_engine(tmp_path, mode=mode)
        recovered = sorted(eng.query("t").column("id"))
        # Every originally committed row survived on every shard...
        assert set(range(300)).issubset(recovered)
        # ...and nothing appears twice.
        assert len(recovered) == len(set(recovered))
        # Shards that committed their sub-batch before the crash keep it
        # (atomic per shard): a shard holds either all or none of its slice.
        second = rows(300, start=300)
        for index, shard in enumerate(eng.shards):
            expected_slice = {
                r["id"]
                for r in second
                if partition_of(r["id"], eng.num_shards) == index
            }
            held = set(shard.query("t").column("id")) & set(range(300, 600))
            assert held in (set(), expected_slice)
        assert eng.verify() == []
        eng.close()
