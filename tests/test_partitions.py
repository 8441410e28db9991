"""Unit tests for delta/main partitions, MVCC columns, and the table."""

import numpy as np
import pytest

from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import SortedDictionary
from repro.storage.main import MainPartition
from repro.storage.mvcc import INFINITY_CID, MvccColumns, NO_TID
from repro.storage.schema import Schema
from repro.storage.table import Table, pack_rowref, unpack_rowref
from repro.storage.types import DataType

from tests.conftest import place_rows


@pytest.fixture(params=["volatile", "nvm"])
def backend(request, pool):
    if request.param == "volatile":
        return VolatileBackend()
    return NvmBackend(pool)


SCHEMA = Schema.of(id=DataType.INT64, name=DataType.STRING, score=DataType.FLOAT64)


class TestRowRef:
    def test_roundtrip(self):
        for is_delta in (False, True):
            for index in (0, 1, 2**40):
                ref = pack_rowref(is_delta, index)
                assert unpack_rowref(ref) == (is_delta, index)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            pack_rowref(True, 2**63)


class TestMvccColumns:
    def test_an_uncommitted_row(self, backend):
        delta = DeltaPartition.create(SCHEMA, backend)
        assert place_rows(delta, [[1, "x", 2.5]], tid=7) == 0
        mvcc = delta.mvcc
        assert mvcc.get_begin(0) == INFINITY_CID
        assert mvcc.get_end(0) == INFINITY_CID
        assert mvcc.get_tid(0) == 7

    def test_visible_mask(self, backend):
        mvcc = MvccColumns.create(backend)
        mvcc.extend_committed(
            np.array([1, 5, 2], dtype=np.uint64),
            np.array([INFINITY_CID, INFINITY_CID, 4], dtype=np.uint64),
        )
        assert list(mvcc.visible_mask(1)) == [True, False, False]
        assert list(mvcc.visible_mask(3)) == [True, False, True]
        assert list(mvcc.visible_mask(5)) == [True, True, False]

    def test_set_begin_end_tid(self, backend):
        mvcc = MvccColumns.create(backend)
        mvcc.extend_committed(
            np.array([INFINITY_CID], dtype=np.uint64),
            np.array([INFINITY_CID], dtype=np.uint64),
        )
        mvcc.set_tid(0, 3)
        mvcc.set_begin(0, 9)
        mvcc.set_end(0, 12)
        mvcc.set_tid(0, NO_TID)
        assert mvcc.get_begin(0) == 9
        assert mvcc.get_end(0) == 12
        assert mvcc.get_tid(0) == NO_TID


class TestDeltaPartition:
    def test_insert_and_read(self, backend):
        delta = DeltaPartition.create(SCHEMA, backend)
        assert place_rows(delta, [[1, "x", 2.5]], tid=9) == 0
        assert delta.row_count == 1
        assert delta.decode_column(0, np.asarray([0]))[0] == 1
        assert delta.decode_column(1, np.asarray([0]))[0] == "x"
        assert delta.decode_column(2, np.asarray([0]))[0] == 2.5

    def test_null_handling(self, backend):
        delta = DeltaPartition.create(SCHEMA, backend)
        place_rows(delta, [[None, None, None]])
        assert delta.decode_column(0, np.asarray([0]))[0] is None
        assert delta.decode_column(1) == [None]

    def test_shared_dictionary_codes(self, backend):
        delta = DeltaPartition.create(SCHEMA, backend)
        place_rows(delta, [[7, "same", 0.0]])
        place_rows(delta, [[8, "same", 0.0]])
        codes = delta.column_codes(1)
        assert codes[0] == codes[1]
        assert len(delta.dictionaries[1]) == 1

    def test_crash_leftover_overwritten(self, backend):
        delta = DeltaPartition.create(SCHEMA, backend)
        place_rows(delta, [[1, "a", 1.0]])
        # Simulate a torn insert: column vectors ahead of the begin vector.
        delta.code_vectors[0].append(42)
        delta.code_vectors[1].append(42)
        delta.code_vectors[2].append(42)
        delta.mvcc.end.append(INFINITY_CID)
        delta.mvcc.tid.append(5)
        assert delta.row_count == 1  # publish never happened
        assert place_rows(delta, [[2, "b", 2.0]], tid=2) == 1
        assert delta.decode_column(0, np.asarray([1]))[0] == 2
        assert delta.decode_column(1, np.asarray([1]))[0] == "b"

    def test_load_encoded_visible_at_cid(self, backend):
        delta = DeltaPartition.create(SCHEMA, backend)
        cols = [
            np.array([0, 1], dtype=np.uint32),
            np.array([0, 0], dtype=np.uint32),
            np.array([0, 1], dtype=np.uint32),
        ]
        for v in (10, 20):
            delta.dictionaries[0].code_for_insert(v)
        delta.dictionaries[1].code_for_insert("s")
        for v in (0.5, 1.5):
            delta.dictionaries[2].code_for_insert(v)
        first = delta.load_encoded(
            cols,
            np.full(2, 3, dtype=np.uint64),
            np.full(2, INFINITY_CID, dtype=np.uint64),
        )
        assert first == 0
        assert delta.row_count == 2
        assert list(delta.mvcc.visible_mask(3)) == [True, True]
        assert list(delta.mvcc.visible_mask(2)) == [False, False]

    def test_load_encoded_ragged_rejected(self, backend):
        delta = DeltaPartition.create(SCHEMA, backend)
        with pytest.raises(ValueError):
            delta.load_encoded(
                [np.zeros(2, np.uint32), np.zeros(3, np.uint32), np.zeros(2, np.uint32)],
                np.ones(2, dtype=np.uint64),
                np.full(2, INFINITY_CID, dtype=np.uint64),
            )

    def test_out_of_range_reads(self, backend):
        delta = DeltaPartition.create(SCHEMA, backend)
        with pytest.raises(IndexError):
            delta.get_code(0, 0)


class TestMainPartition:
    def _build(self, backend, values_by_col, begin=None, end=None):
        dictionaries = []
        code_cols = []
        for (dtype, values) in values_by_col:
            domain = sorted({v for v in values if v is not None})
            d = SortedDictionary.build(dtype, backend, domain)
            null_code = len(d)
            codes = np.array(
                [null_code if v is None else domain.index(v) for v in values],
                dtype=np.uint32,
            )
            dictionaries.append(d)
            code_cols.append(codes)
        n = len(values_by_col[0][1])
        begin = begin if begin is not None else np.ones(n, dtype=np.uint64)
        end = end if end is not None else np.full(n, INFINITY_CID, dtype=np.uint64)
        schema = Schema.of(
            **{f"c{i}": dtype for i, (dtype, _) in enumerate(values_by_col)}
        )
        return MainPartition.build(schema, backend, dictionaries, code_cols, begin, end)

    def test_build_and_decode(self, backend):
        main = self._build(
            backend,
            [
                (DataType.INT64, [5, 3, 5, None]),
                (DataType.STRING, ["b", "a", None, "b"]),
            ],
        )
        assert main.row_count == 4
        assert main.decode_column(0) == [5, 3, 5, None]
        assert main.decode_column(1) == ["b", "a", None, "b"]
        assert main.decode_column(0, np.asarray([1]))[0] == 3
        assert main.decode_column(1, np.asarray([2]))[0] is None

    def test_codes_bitpacked(self, backend):
        main = self._build(backend, [(DataType.INT64, list(range(10)))])
        col = main.columns[0]
        assert col.bits == 4  # 10 values + null code -> 4 bits
        assert col.compressed_bytes() < 10 * 8

    def test_empty_main(self, backend):
        main = MainPartition.empty(SCHEMA, backend)
        assert main.row_count == 0
        assert main.decode_column(0) == []

    def test_all_null_column(self, backend):
        main = self._build(backend, [(DataType.INT64, [None, None])])
        assert main.decode_column(0) == [None, None]

    def test_mvcc_preserved(self, backend):
        begin = np.array([2, 4], dtype=np.uint64)
        end = np.array([INFINITY_CID, 9], dtype=np.uint64)
        main = self._build(
            backend, [(DataType.INT64, [1, 2])], begin=begin, end=end
        )
        assert list(main.mvcc.begin_array()) == [2, 4]
        assert list(main.mvcc.visible_mask(4)) == [True, True]
        assert list(main.mvcc.visible_mask(9)) == [True, False]

    def test_ragged_build_rejected(self, backend):
        d = SortedDictionary.build(DataType.INT64, backend, [1])
        with pytest.raises(ValueError):
            MainPartition.build(
                Schema.of(a=DataType.INT64),
                backend,
                [d],
                [np.zeros(3, dtype=np.uint32)],
                np.ones(2, dtype=np.uint64),
                np.full(2, INFINITY_CID, dtype=np.uint64),
            )


class TestTable:
    def test_create_empty(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        assert table.row_count == 0
        assert table.main_row_count == 0
        assert table.delta_row_count == 0

    def test_insert_and_get_row(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        ref = pack_rowref(True, place_rows(table.delta, [[1, "a", 0.5]], tid=3))
        assert unpack_rowref(ref) == (True, 0)
        assert table.get_row(ref) == [1, "a", 0.5]
        assert table.get_row_dict(ref) == {"id": 1, "name": "a", "score": 0.5}

    def test_mvcc_for_bad_ref(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        with pytest.raises(IndexError):
            table.mvcc_for(pack_rowref(True, 5))

    def test_stats(self, backend):
        table = Table.create(1, "t", SCHEMA, backend)
        place_rows(table.delta, [[1, "a", 0.5]], tid=3)
        stats = table.stats()
        assert stats["delta_rows"] == 1
        assert stats["main_rows"] == 0
        assert stats["name"] == "t"
