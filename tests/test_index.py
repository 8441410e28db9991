"""Unit tests for group-key and delta indexes."""

import numpy as np

from repro.index.delta_index import VolatileDeltaIndex
from repro.index.groupkey import GroupKeyIndex
from repro.index.table_index import TableIndex
from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.schema import Schema
from repro.storage.table import Table, unpack_rowref
from repro.storage.types import DataType

from tests.conftest import commit_rows, merge_table

SCHEMA = Schema.of(k=DataType.INT64, v=DataType.STRING)


def _commit(table, values, cid=1):
    return commit_rows(table, [values], cid)[0]


def _merged_table(backend, keys):
    table = Table.create(1, "t", SCHEMA, backend)
    for k in keys:
        _commit(table, [k, f"s{k}"])
    table.main, table.delta = merge_table(table, backend)
    return table


class TestGroupKeyIndex:
    def test_lookup_positions(self):
        backend = VolatileBackend()
        table = _merged_table(backend, [5, 3, 5, 9, 3, 5])
        index = GroupKeyIndex.build(backend, table.main.columns[0])
        dict0 = table.main.columns[0].dictionary
        codes = table.main.column_codes(0)
        for value in (3, 5, 9):
            code = dict0.code_of(value)
            expected = sorted(np.nonzero(codes == code)[0])
            assert sorted(index.lookup(code)) == expected

    def test_lookup_range(self):
        backend = VolatileBackend()
        table = _merged_table(backend, [1, 2, 3, 4, 5])
        index = GroupKeyIndex.build(backend, table.main.columns[0])
        dict0 = table.main.columns[0].dictionary
        lo = dict0.lower_bound(2)
        hi = dict0.upper_bound(4)
        positions = index.lookup_range(lo, hi)
        values = sorted(table.main.decode_column(0, np.asarray(positions)))
        assert values == [2, 3, 4]

    def test_empty_range(self):
        backend = VolatileBackend()
        table = _merged_table(backend, [1, 2])
        index = GroupKeyIndex.build(backend, table.main.columns[0])
        assert index.lookup_range(1, 1).size == 0

    def test_null_bucket(self):
        backend = VolatileBackend()
        table = Table.create(1, "t", SCHEMA, backend)
        _commit(table, [None, "a"])
        _commit(table, [1, "b"])
        table.main, table.delta = merge_table(table, backend)
        col = table.main.columns[0]
        index = GroupKeyIndex.build(backend, col)
        assert len(index.lookup(col.null_code)) == 1

    def test_attach_after_restart(self, pool_dir):
        from repro.nvm.pool import PMemPool

        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024)
        backend = NvmBackend(pool)
        table = _merged_table(backend, [4, 4, 2])
        index = GroupKeyIndex.build(backend, table.main.columns[0])
        offs = index.offsets_vector.offset
        poss = index.positions_vector.offset
        code = table.main.columns[0].dictionary.code_of(4)
        expected = sorted(index.lookup(code))
        pool.close()
        pool = PMemPool.open(pool_dir)
        backend = NvmBackend(pool)
        again = GroupKeyIndex.attach(backend, offs, poss)
        assert sorted(again.lookup(code)) == expected
        pool.close()


class TestDeltaIndex:
    def test_add_and_lookup(self):
        delta_index = VolatileDeltaIndex()
        delta_index.add(7, 0)
        delta_index.add(7, 3)
        delta_index.add(2, 1)
        assert sorted(delta_index.lookup(7)) == [0, 3]
        assert list(delta_index.lookup(2)) == [1]
        assert delta_index.lookup(99).size == 0

    def test_entry_count(self):
        delta_index = VolatileDeltaIndex()
        for i in range(5):
            delta_index.add(i % 2, i)
        assert delta_index.entry_count() == 5

    def test_fill_from_the_delta(self):
        backend = VolatileBackend()
        table = Table.create(1, "t", SCHEMA, backend)
        for k in [5, 6, 5]:
            _commit(table, [k, "x"])
        index = VolatileDeltaIndex()
        index.add_many(table.delta.column_codes(0), 0)
        code = table.delta.dictionaries[0].code_of(5)
        assert sorted(index.lookup(code)) == [0, 2]

    def test_an_empty_batch_registers_nothing(self):
        delta_index = VolatileDeltaIndex()
        delta_index.add_many(np.empty(0, dtype=np.uint32), 0)
        assert delta_index.entry_count() == 0
        # The next batch still builds the run.
        delta_index.add_many(np.array([3, 1, 3], dtype=np.uint32), 0)
        assert delta_index._state[0].size == 3
        assert delta_index.lookup(3).tolist() == [0, 2]


class TestTableIndex:
    def _table_with_index(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        for k in [1, 2, 1, None]:
            _commit(table, [k, "x"])
        table.main, table.delta = merge_table(table, backend)
        for k in [2, 1]:
            _commit(table, [k, "y"], cid=2)
        index = TableIndex.build(backend, table, "k")
        return table, index

    def test_probe_spans_partitions(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        refs = index.probe_equal(table, 1)
        partitions = sorted(unpack_rowref(r)[0] for r in refs)
        assert len(refs) == 3
        assert partitions == [False, False, True]

    def test_probe_missing_value(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        assert index.probe_equal(table, 42) == []

    def test_probe_null(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        refs = index.probe_null(table)
        assert len(refs) == 1
        assert table.get_row(refs[0])[0] is None

    def test_on_insert_maintains(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        ref = _commit(table, [77, "fresh"], cid=3)
        __, row = unpack_rowref(ref)
        index.on_insert(table.delta.get_code(0, row), row)
        assert len(index.probe_equal(table, 77)) == 1

    def test_stale_delta_detected_and_rebuilt(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        # Simulate a restart: rows exist but the volatile index forgot them.
        index.delta_index = VolatileDeltaIndex()
        index._delta_synced_rows = 0
        assert len(index.probe_equal(table, 1)) == 3

    def test_a_new_index_catches_up_on_its_first_probe(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        assert index._delta_synced_rows == 0
        assert index.delta_index.entry_count() == 0
        assert len(index.probe_equal(table, 2)) == 2
        assert index._delta_synced_rows == table.delta.row_count == 2
        assert index.delta_index.entry_count() == 2

    def test_building_reads_no_delta_codes(self, monkeypatch):
        from repro.storage.delta import DeltaPartition

        backend = VolatileBackend()
        table = _merged_table(backend, [1, 2])
        _commit(table, [3, "d"], cid=2)

        def unread(*args, **kwargs):
            raise AssertionError("the build read the delta")

        monkeypatch.setattr(DeltaPartition, "column_codes", unread)
        monkeypatch.setattr(DeltaPartition, "codes_at", unread)
        index = TableIndex.build(backend, table, "k")
        monkeypatch.undo()
        assert len(index.probe_equal(table, 3)) == 1

    def test_a_batch_before_the_first_probe_keeps_earlier_rows(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        refs = [_commit(table, [k, "z"], cid=3) for k in (1, 9)]
        first = unpack_rowref(refs[0])[1]
        codes = np.array(
            [table.delta.get_code(0, unpack_rowref(r)[1]) for r in refs],
            dtype=np.uint32,
        )
        index.on_insert_many(codes, first)
        assert index._delta_synced_rows == table.delta.row_count == 4
        assert index.delta_index.entry_count() == 4
        assert len(index.probe_equal(table, 1)) == 4  # two main, two delta
        assert len(index.probe_equal(table, 9)) == 1

    def test_probe_range_catches_up(self):
        backend = VolatileBackend()
        table, index = self._table_with_index(backend)
        refs = index.probe_range(table, 2, None)
        assert sorted(unpack_rowref(r)[0] for r in refs) == [False, True]
        assert index._delta_synced_rows == table.delta.row_count

    def test_probe_spans_partitions_on_nvm(self, pool):
        backend = NvmBackend(pool)
        table, index = self._table_with_index(backend)
        refs = index.probe_equal(table, 1)
        assert sorted(unpack_rowref(r)[0] for r in refs) == [False, False, True]
        assert [table.get_row(r)[0] for r in refs] == [1, 1, 1]
