"""Tests for the recovery validator, engine config, and latency model."""

import pytest

from repro.core.config import EngineConfig
from repro.nvm.latency import LatencyModel, NvmStats, busy_wait_ns
from repro.recovery.validator import validate_database, validate_table
from repro.storage.backend import VolatileBackend
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType

from tests.conftest import commit_rows, place_rows

SCHEMA = Schema.of(id=DataType.INT64)


def _committed_table():
    backend = VolatileBackend()
    table = Table.create(1, "t", SCHEMA, backend)
    commit_rows(table, [[1]])
    return table


class TestValidator:
    def test_clean_table_passes(self):
        table = _committed_table()
        assert validate_table(table, last_cid=1) == []

    def test_future_begin_detected(self):
        table = _committed_table()
        assert any(
            "beyond last_cid" in p for p in validate_table(table, last_cid=0)
        )

    def test_lingering_lock_detected(self):
        table = _committed_table()
        table.delta.mvcc.set_tid(0, 55)
        assert any("locked" in p for p in validate_table(table, last_cid=1))

    def test_end_before_begin_detected(self):
        table = _committed_table()
        table.delta.mvcc.set_begin(0, 5)
        table.delta.mvcc.set_end(0, 2)
        problems = validate_table(table, last_cid=5)
        assert any("end_cid < begin_cid" in p for p in problems)

    def test_invalidated_uncommitted_detected(self):
        backend = VolatileBackend()
        table = Table.create(1, "t", SCHEMA, backend)
        place_rows(table.delta, [[1]], tid=0)
        table.delta.mvcc.set_end(0, 1)
        problems = validate_table(table, last_cid=1)
        assert any("never committed" in p for p in problems)

    def test_validate_database_aggregates(self):
        tables = [_committed_table(), _committed_table()]
        tables[1].delta.mvcc.set_tid(0, 9)
        problems = validate_database(tables, last_cid=1)
        assert len(problems) == 1

    def test_uncommitted_garbage_is_fine(self):
        # Rolled-back rows (begin INF, tid 0) are expected and valid.
        backend = VolatileBackend()
        table = Table.create(1, "t", SCHEMA, backend)
        place_rows(table.delta, [[1]], tid=0)
        assert validate_table(table, last_cid=0) == []


class TestEngineConfig:
    def test_defaults_valid(self):
        EngineConfig().validated()

    def test_bad_group_commit(self):
        with pytest.raises(ValueError):
            EngineConfig(group_commit_size=-1).validated()

    @pytest.mark.parametrize(
        "option", ["persistent_dict_index", "persistent_delta_index"]
    )
    def test_the_persistent_delta_options_are_gone(self, option):
        """The delta index and the delta-dictionary lookup are volatile
        only; a config naming the old switches fails loudly."""
        with pytest.raises(TypeError):
            EngineConfig(**{option: True})

    @pytest.mark.parametrize(
        "option, value",
        [
            ("merge_delta_fraction", 0.3),
            ("merge_delta_fraction_floor", 4),
            ("checkpoint_log_bytes", 4096),
            ("maintenance_interval_s", 0.05),
            ("checkpoint_after_merge", False),
        ],
    )
    def test_the_second_maintenance_triggers_are_gone(self, option, value):
        """Maintenance asks one question per action: a table merges at
        ``auto_merge_rows``, a LOG engine checkpoints at
        ``checkpoint_max_replay_s`` and after every merge."""
        with pytest.raises(TypeError):
            EngineConfig(**{option: value})

    @pytest.mark.parametrize("option", ["txn_slots", "merge_chunk_rows"])
    def test_the_capacity_options_are_module_constants(self, option):
        """The slot count is ``txn_table.TXN_SLOTS`` and the fold chunk
        ``merge.MERGE_CHUNK_ROWS``; a config naming either fails loudly."""
        with pytest.raises(TypeError):
            EngineConfig(**{option: 8})


class TestLatencyModel:
    def test_modelled_time_components(self):
        stats = NvmStats(model=LatencyModel(read_ns_per_line=100, write_ns_per_line=200))
        stats.bytes_read = 640  # 10 lines
        stats.lines_flushed = 5
        stats.drain_calls = 2
        expected = 10 * 100 + 5 * 200 + 2 * stats.model.drain_ns
        assert stats.modelled_ns() == expected

    def test_write_multiplier_scales(self):
        base = NvmStats(model=LatencyModel(write_multiplier=1.0))
        scaled = NvmStats(model=LatencyModel(write_multiplier=4.0))
        for stats in (base, scaled):
            stats.lines_flushed = 10
        assert scaled.modelled_ns() > base.modelled_ns()

    def test_scaled_copy(self):
        model = LatencyModel()
        scaled = model.scaled(8.0)
        assert scaled.write_multiplier == 8.0
        assert scaled.read_ns_per_line == model.read_ns_per_line
        assert model.write_multiplier == 1.0  # original untouched

    def test_busy_wait_roughly_accurate(self):
        import time

        start = time.perf_counter_ns()
        busy_wait_ns(200_000)  # 0.2 ms
        elapsed = time.perf_counter_ns() - start
        assert elapsed >= 200_000

    def test_busy_wait_zero_returns_fast(self):
        busy_wait_ns(0)
        busy_wait_ns(-5)

    def test_snapshot_keys(self):
        stats = NvmStats()
        snap = stats.snapshot()
        assert "modelled_ns" in snap
        assert "lines_flushed" in snap
