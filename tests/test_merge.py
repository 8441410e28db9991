"""Unit tests for the merge process."""

import numpy as np
import pytest

from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.merge import replay_merge
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType

from tests.conftest import commit_rows, merge_table, place_rows


@pytest.fixture(params=["volatile", "nvm"])
def backend(request, pool):
    if request.param == "volatile":
        return VolatileBackend()
    return NvmBackend(pool)


SCHEMA = Schema.of(id=DataType.INT64, tag=DataType.STRING)


def _commit_row(table, values, cid):
    return commit_rows(table, [values], cid)[0]


def _invalidate(table, ref, cid):
    mvcc, idx = table.mvcc_for(ref)
    mvcc.set_end(idx, cid)


class TestMerge:
    def test_moves_delta_to_main(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        for i in range(20):
            _commit_row(table, [i, f"tag{i % 3}"], cid=1)
        table.main, table.delta = merge_table(table, backend)
        assert table.main_row_count == 20
        assert table.delta_row_count == 0
        assert table.main.decode_column(0) == list(range(20))

    def test_drops_invalidated_rows(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        refs = [_commit_row(table, [i, "x"], cid=1) for i in range(10)]
        for ref in refs[:4]:
            _invalidate(table, ref, cid=2)
        table.main, table.delta = merge_table(table, backend)
        assert table.main_row_count == 6
        assert table.main.decode_column(0) == list(range(4, 10))

    def test_drops_uncommitted_garbage(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        _commit_row(table, [1, "keep"], cid=1)
        place_rows(table.delta, [[2, "aborted"]], tid=9)  # never committed
        table.main, table.delta = merge_table(table, backend)
        assert table.main_row_count == 1
        assert table.main.decode_column(1) == ["keep"]

    def test_second_merge_includes_old_main(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        _commit_row(table, [1, "a"], cid=1)
        table.main, table.delta = merge_table(table, backend)
        _commit_row(table, [2, "b"], cid=2)
        table.main, table.delta = merge_table(table, backend)
        assert table.main_row_count == 2
        assert sorted(table.main.decode_column(0)) == [1, 2]

    def test_main_invalidations_respected(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        ref = _commit_row(table, [1, "dead"], cid=1)
        _commit_row(table, [2, "alive"], cid=1)
        table.main, table.delta = merge_table(table, backend)
        # Invalidate a row that now lives in main.
        from repro.storage.table import pack_rowref

        codes = table.main.decode_column(0)
        dead_idx = codes.index(1)
        _invalidate(table, pack_rowref(False, dead_idx), cid=2)
        table.main, table.delta = merge_table(table, backend)
        assert table.main.decode_column(0) == [2]

    def test_dictionary_pruned(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        ref = _commit_row(table, [1, "onlyused once"], cid=1)
        _commit_row(table, [2, "kept"], cid=1)
        _invalidate(table, ref, cid=2)
        table.main, table.delta = merge_table(table, backend)
        assert table.main.columns[1].dictionary.values_list() == ["kept"]

    def test_dictionary_sorted_after_merge(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        for value in ["zebra", "apple", "mango"]:
            _commit_row(table, [0, value], cid=1)
        table.main, table.delta = merge_table(table, backend)
        assert table.main.columns[1].dictionary.values_list() == [
            "apple",
            "mango",
            "zebra",
        ]

    def test_nulls_survive_merge(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        _commit_row(table, [None, "x"], cid=1)
        _commit_row(table, [5, None], cid=1)
        table.main, table.delta = merge_table(table, backend)
        assert table.main.decode_column(0) == [None, 5]
        assert table.main.decode_column(1) == ["x", None]

    def test_begin_cids_preserved(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        _commit_row(table, [1, "a"], cid=3)
        _commit_row(table, [2, "b"], cid=7)
        table.main, table.delta = merge_table(table, backend)
        begins = sorted(int(b) for b in table.main.mvcc.begin_array())
        assert begins == [3, 7]
        # A snapshot between the two commits sees only the first row.
        assert list(table.main.mvcc.visible_mask(5)).count(True) == 1

    def test_merge_empty_table(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        table.main, table.delta = merge_table(table, backend)
        assert table.main_row_count == 0
        assert table.delta_row_count == 0

    def test_replay_merge_folds_the_rows_below_the_watermark(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        _commit_row(table, [1, "a"], cid=1)
        _commit_row(table, [2, "b"], cid=2)
        replay_merge(table, backend, 1, np.zeros(0, bool), np.ones(1, bool))
        assert table.main.decode_column(0) == [1]
        assert table.delta.decode_column(0) == [2]
