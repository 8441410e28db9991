"""Unit tests for sorted and unsorted dictionaries."""

import sys
import threading

import pytest

from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.dictionary import SortedDictionary, UnsortedDictionary
from repro.storage.types import DataType

from tests.conftest import stall_first_snapshot


@pytest.fixture(params=["volatile", "nvm"])
def backend(request, pool):
    if request.param == "volatile":
        return VolatileBackend()
    return NvmBackend(pool)


class TestUnsortedDictionary:
    def test_first_seen_order(self, backend):
        d = UnsortedDictionary.create(DataType.INT64, backend)
        assert d.code_for_insert(50) == 0
        assert d.code_for_insert(10) == 1
        assert d.code_for_insert(50) == 0
        assert len(d) == 2

    def test_value_roundtrip_types(self, backend):
        for dtype, values in [
            (DataType.INT64, [3, -9, 0]),
            (DataType.FLOAT64, [1.5, -2.25]),
            (DataType.STRING, ["b", "a", "ü"]),
        ]:
            d = UnsortedDictionary.create(dtype, backend)
            codes = [d.code_for_insert(v) for v in values]
            assert [d.value_of(c) for c in codes] == values
            assert d.values_list() == values

    def test_code_of_missing(self, backend):
        d = UnsortedDictionary.create(DataType.STRING, backend)
        d.code_for_insert("present")
        assert d.code_of("absent") is None
        assert d.code_of("present") == 0

    def test_lazy_lookup_rebuild(self, backend):
        d = UnsortedDictionary.create(DataType.INT64, backend)
        d.code_for_insert(5)
        d.code_for_insert(7)
        d._lookup = None  # simulate a restart losing the volatile map
        assert d.code_of(7) == 1
        assert d.code_for_insert(5) == 0  # no duplicate appended
        assert len(d) == 2

    def test_a_new_dictionary_needs_no_rebuild(self, backend):
        d = UnsortedDictionary.create(DataType.INT64, backend)
        assert d._lookup is not None
        assert d.code_of(1) is None
        assert d.code_for_insert(1) == 0
        assert d.code_of(1) == 0

    def test_batch_codes_after_a_rebuild_match_single_inserts(self, backend):
        d = UnsortedDictionary.from_values(DataType.INT64, backend, [5, 7])
        assert d._lookup is None
        codes = d.codes_for_insert([7, 9, 5, 9, 3])
        assert codes.tolist() == [1, 2, 0, 2, 3]
        assert d.values_list() == [5, 7, 9, 3]
        assert d.code_for_insert(9) == 2

    def test_an_int_probe_of_a_float_run(self, backend):
        d = UnsortedDictionary.from_values(DataType.FLOAT64, backend, [1.5, 2.0])
        assert d.code_of(2) == 1
        assert d.code_of(3) is None
        assert d.code_for_insert(2) == 1
        assert len(d) == 2


class TestLookupRebuild:
    """After a restart the volatile ``{value: code}`` map is rebuilt by
    whoever needs it first. A reader's rebuild used to snapshot the
    values and assign its map with no latch, so it could overwrite the
    map a concurrent writer had just recorded a new value in — and the
    next insert of that value appended it a second time."""

    def test_reader_rebuild_keeps_a_concurrent_insert(self, backend):
        d = UnsortedDictionary.from_values(
            DataType.INT64, backend, list(range(1000))
        )
        snapshotted, resume = stall_first_snapshot(d)
        codes = []

        def insert_fresh():
            assert snapshotted.wait(10)
            codes.append(d.code_for_insert(-1))
            resume.set()

        reader = threading.Thread(target=lambda: codes.append(d.code_of(5)))
        writer = threading.Thread(target=insert_fresh)
        reader.start()
        writer.start()
        reader.join(10)
        writer.join(10)
        assert not reader.is_alive() and not writer.is_alive()
        assert sorted(codes) == [5, 1000]
        assert d.code_for_insert(-1) == 1000
        assert d.code_of(-1) == 1000
        assert d.values_list().count(-1) == 1

    def test_readers_and_writers_racing_the_rebuild(self):
        """Stress form: more threads than cores, a short switch
        interval, and the invariant a lost map entry breaks — no value
        is ever in the dictionary twice."""
        backend = VolatileBackend()
        preloaded, fresh, writers = 30_000, 40, 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                d = UnsortedDictionary.from_values(
                    DataType.INT64, backend, list(range(preloaded))
                )
                start = threading.Barrier(writers + 3)

                def write():
                    start.wait()
                    for v in list(range(fresh)) * 2:
                        d.code_for_insert(-1 - v)

                def read():
                    start.wait()
                    assert d.code_of(5) == 5

                threads = [
                    threading.Thread(target=write) for _ in range(writers)
                ] + [threading.Thread(target=read) for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                values = d.values_list()
                assert len(values) == len(set(values)) == preloaded + fresh
        finally:
            sys.setswitchinterval(interval)

    def test_attach_builds_the_lookup_on_first_use(self, pool):
        backend = NvmBackend(pool)
        d = UnsortedDictionary.create(DataType.STRING, backend)
        code = d.code_for_insert("hello")
        attached = UnsortedDictionary.attach(DataType.STRING, backend, d.values.offset)
        assert attached._lookup is None
        assert attached.code_of("hello") == code
        assert attached._lookup is not None

    def test_a_value_published_without_its_lookup_entry(self, pool):
        """A crash between a value's publish and its lookup entry loses
        nothing: the rebuild reads the value vector, the authority."""
        backend = NvmBackend(pool)
        d = UnsortedDictionary.create(DataType.INT64, backend)
        d.code_for_insert(1)
        d.code_for_insert(2)
        d.values.append(3)
        attached = UnsortedDictionary.attach(DataType.INT64, backend, d.values.offset)
        assert attached.code_of(3) == 2
        assert attached.code_for_insert(3) == 2  # found, not duplicated
        assert len(attached) == 3

    def test_string_values_rebuild_into_the_tail(self, backend):
        d = UnsortedDictionary.from_values(DataType.STRING, backend, ["b", "a", "c"])
        assert d.code_of("a") == 1
        run, _, tail = d._lookup
        assert run.size == 0
        assert tail == {"b": 0, "a": 1, "c": 2}
        assert d.code_for_insert("d") == 3


class TestSortedDictionary:
    def _build(self, backend, values, dtype=DataType.INT64):
        return SortedDictionary.build(dtype, backend, values)

    def test_codes_are_sorted_positions(self, backend):
        d = self._build(backend, [10, 20, 30])
        assert d.code_of(10) == 0
        assert d.code_of(30) == 2
        assert d.code_of(15) is None

    def test_bounds_numeric(self, backend):
        d = self._build(backend, [10, 20, 30])
        assert d.lower_bound(15) == 1
        assert d.lower_bound(20) == 1
        assert d.upper_bound(20) == 2
        assert d.lower_bound(5) == 0
        assert d.lower_bound(99) == 3
        assert d.upper_bound(99) == 3

    def test_bounds_strings(self, backend):
        d = self._build(backend, ["apple", "mango", "pear"], DataType.STRING)
        assert d.code_of("mango") == 1
        assert d.lower_bound("banana") == 1
        assert d.upper_bound("mango") == 2

    def test_decode(self, backend):
        import numpy as np

        d = self._build(backend, [5, 6, 7])
        assert d.decode_array(np.array([2, 0, 1])).tolist() == [7, 5, 6]

    def test_empty_dictionary(self, backend):
        d = self._build(backend, [])
        assert len(d) == 0
        assert d.code_of(1) is None
        assert d.lower_bound(1) == 0

    def test_values_list_types(self, backend):
        d = self._build(backend, [1.5, 2.5], DataType.FLOAT64)
        values = d.values_list()
        assert values == [1.5, 2.5]
        assert all(isinstance(v, float) for v in values)

    def test_attach_after_restart(self, pool_dir):
        from repro.nvm.pool import PMemPool

        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024)
        backend = NvmBackend(pool)
        d = SortedDictionary.build(DataType.STRING, backend, ["a", "b", "c"])
        off = d.values.offset
        pool.close()
        pool = PMemPool.open(pool_dir)
        backend = NvmBackend(pool)
        d2 = SortedDictionary.attach(DataType.STRING, backend, off)
        assert d2.code_of("b") == 1
        assert d2.values_list() == ["a", "b", "c"]
        pool.close()
