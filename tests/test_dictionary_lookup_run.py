"""The delta dictionary's lookup as one sorted run plus a dict tail, and
main's immutable structures read in place.

The lookup is checked against the structure it replaced (a plain
``{value: code}`` dict, kept here as the oracle) across inserts, batch
inserts, probes and simulated restarts. The vector read that main's
structures go through is checked for when it shares the pool's memory.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.nvm.pool import PMemPool
from repro.nvm.pvector import PVector
from repro.query.predicate import Eq
from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.dictionary import UnsortedDictionary
from repro.storage.types import DataType
from repro.storage.vector import VolatileVector

from tests.conftest import SMALL_EXTENT, make_config

_NUMPY = {DataType.INT64: np.int64, DataType.FLOAT64: np.float64}


class OracleLookup:
    """The ``{value: code}`` dict the run-plus-tail lookup replaced,
    with the insert paths that filled it."""

    def __init__(self, dtype: DataType):
        self.dtype = dtype
        self.values: list = []
        self.lookup: dict = {}

    def restart(self, values_list: list) -> None:
        # Rebuilt from the dictionary's values, as the dict was: fresh
        # objects, so no NaN matches by identity afterwards.
        self.lookup = {value: code for code, value in enumerate(values_list)}

    def _append(self, value) -> int:
        code = len(self.values)
        self.values.append(value)
        self.lookup[value] = code
        return code

    def code_for_insert(self, value) -> int:
        code = self.lookup.get(value)
        return self._append(value) if code is None else code

    def codes_for_insert(self, values: list) -> list[int]:
        arr = np.asarray(values, dtype=_NUMPY.get(self.dtype, object))
        uniques, first, inverse = np.unique(
            arr, return_index=True, return_inverse=True
        )
        codes, missing = [], []
        for i, value in enumerate(uniques.tolist()):
            codes.append(self.lookup.get(value))
            if codes[-1] is None:
                missing.append((int(first[i]), i, value))
        for _, i, value in sorted(missing):
            codes[i] = self._append(value)
        return [codes[j] for j in inverse.reshape(-1).tolist()]


_VALUES = {
    DataType.INT64: st.sampled_from([-(2**63), 2**63 - 1, 0, -1, 7])
    | st.integers(-(2**63), 2**63 - 1),
    # ``math.nan`` is one object, so the dict can match it by identity.
    DataType.FLOAT64: st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, 5e-324]
    )
    | st.floats(),
    DataType.STRING: st.sampled_from(
        ["", "\x00", "a", "a\x00", "ü", "日本", "\U0001d11e"]
    )
    | st.text(max_size=3),
}


class LookupModel(RuleBasedStateMachine):
    """Every insert and probe goes to the dictionary and the oracle."""

    dtype: DataType

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.pool = PMemPool.create(self.dir, extent_size=SMALL_EXTENT)
        self.backend = NvmBackend(self.pool)
        self.dictionary = UnsortedDictionary.create(self.dtype, self.backend)
        self.oracle = OracleLookup(self.dtype)

    def teardown(self):
        self.pool.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    @rule(data=st.data())
    def code_for_insert(self, data):
        value = data.draw(_VALUES[self.dtype])
        want = self.oracle.code_for_insert(value)
        assert self.dictionary.code_for_insert(value) == want

    @rule(data=st.data())
    def codes_for_insert(self, data):
        values = data.draw(st.lists(_VALUES[self.dtype], max_size=64))
        got = self.dictionary.codes_for_insert(values)
        assert got.tolist() == (self.oracle.codes_for_insert(values) if values else [])

    @rule(data=st.data())
    def code_of(self, data):
        value = data.draw(_VALUES[self.dtype])
        assert self.dictionary.code_of(value) == self.oracle.lookup.get(value)

    @rule(attach=st.booleans())
    def restart(self, attach):
        old = self.dictionary
        if attach:
            new = UnsortedDictionary.attach(self.dtype, self.backend, old.values.offset)
        else:
            new = UnsortedDictionary.from_values(
                self.dtype, self.backend, old.values_list()
            )
        assert new._lookup is None
        self.dictionary = new
        self.oracle.restart(new.values_list())

    @invariant()
    def same_values(self):
        # ``repr`` tells -0.0 from 0.0 and lets NaN equal NaN.
        got = list(map(repr, self.dictionary.values_list()))
        assert got == list(map(repr, self.oracle.values))


def _machine(dtype: DataType):
    case = type(f"LookupModel{dtype.name}", (LookupModel,), {"dtype": dtype}).TestCase
    case.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)
    return case


TestLookupModelInt64 = _machine(DataType.INT64)
TestLookupModelFloat64 = _machine(DataType.FLOAT64)
TestLookupModelString = _machine(DataType.STRING)


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


class TestRun:
    def test_a_restart_builds_the_run_and_inserts_fill_the_tail(self):
        values = [30, -5, 12, 7]
        d = UnsortedDictionary.from_values(DataType.INT64, VolatileBackend(), values)
        assert d.code_of(12) == 2
        run, codes, tail = d._lookup
        assert run.tolist() == sorted(values) and tail == {}
        assert [values[c] for c in codes.tolist()] == run.tolist()
        assert d.code_for_insert(9) == 4
        assert d.codes_for_insert([9, 30, 1]).tolist() == [4, 0, 5]
        assert d._lookup[0] is run and d._lookup[2] == {9: 4, 1: 5}

    def test_strings_fill_the_tail_instead(self):
        d = UnsortedDictionary.from_values(
            DataType.STRING, VolatileBackend(), ["b", "a\x00", "a"]
        )
        assert d.code_of("a") == 2
        run, _, tail = d._lookup
        assert run.size == 0 and tail == {"b": 0, "a\x00": 1, "a": 2}

    def test_a_fresh_dictionary_starts_with_an_empty_run(self):
        d = UnsortedDictionary.create(DataType.FLOAT64, VolatileBackend())
        assert d._lookup[0].size == 0
        assert d.code_for_insert(0.0) == 0 and d.code_of(-0.0) == 0

    def test_a_batch_probes_the_tail_only_for_what_the_run_misses(self):
        d = UnsortedDictionary.from_values(
            DataType.INT64, VolatileBackend(), list(range(100))
        )
        d.code_of(0)
        run, codes, _ = d._lookup
        tail = _CountingDict()
        d._lookup = (run, codes, tail)
        # No per-value probe helper: one vectorised search of the run.
        d.code_of = None
        assert d.codes_for_insert([5, 99, 5, 0]).tolist() == [5, 99, 5, 0]
        assert tail.gets == 0
        assert d.codes_for_insert([5, 100, 101]).tolist() == [5, 100, 101]
        assert tail.gets == 2

    def test_nan_gets_a_new_code_every_insert(self):
        d = UnsortedDictionary.from_values(
            DataType.FLOAT64, VolatileBackend(), [1.0, float("nan")]
        )
        assert d.code_of(float("nan")) is None
        assert d.code_for_insert(float("nan")) == 2
        assert d.codes_for_insert([float("nan"), 1.0]).tolist() == [3, 0]

    def test_the_nans_of_one_batch_share_one_new_code(self):
        d = UnsortedDictionary.create(DataType.FLOAT64, VolatileBackend())
        nan = float("nan")
        batch = [nan, -0.0, nan, 0.0, float("nan")]
        assert d.codes_for_insert(batch).tolist() == [0, 1, 0, 1, 0]
        assert d.codes_for_insert([nan, 0.0]).tolist() == [2, 1]
        assert list(map(repr, d.values_list())) == ["nan", "-0.0", "nan"]

    @pytest.mark.parametrize("dtype", [DataType.INT64, DataType.FLOAT64])
    def test_a_probe_does_not_cast_the_run(self, dtype):
        n = 1_000_000
        d = UnsortedDictionary.from_values(
            dtype, VolatileBackend(), np.arange(n)[::-1].tolist()
        )
        assert d.code_of(3) == n - 4  # builds the run
        tracemalloc.start()
        try:
            assert d.code_of(n // 3) == n - 1 - n // 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"a probe allocated {peak} bytes"


@pytest.fixture(scope="module")
def module_pool(tmp_path_factory):
    pool = PMemPool.create(
        str(tmp_path_factory.mktemp("pool")), extent_size=SMALL_EXTENT
    )
    yield pool
    pool.close()


class TestView:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 40), cap=st.integers(1, 16))
    def test_pvector_view_is_in_place_within_one_chunk(self, module_pool, n, cap):
        vector = PVector.create(module_pool, np.int64, chunk_capacity=cap)
        if n:
            vector.extend(np.arange(n) * 3)
        view = vector.view()
        assert not view.flags.writeable
        assert np.array_equal(view, vector.to_numpy())
        # Two zero-copy views of one chunk share memory; two copies never.
        assert np.shares_memory(view, vector.view()) == (0 < n <= cap)

    @given(n=st.integers(0, 40))
    def test_volatile_view_is_always_in_place(self, n):
        vector = VolatileVector(np.int64)
        vector.extend(np.arange(n))
        view = vector.view()
        assert not view.flags.writeable
        assert np.array_equal(view, vector.to_numpy())
        assert np.shares_memory(view, vector.view()) == (n > 0)


class TestMainInPlace:
    """A merged main is one chunk per structure, and after a restart its
    readers index the pool's memory, not a DRAM copy of it."""

    def test_attached_structures_share_the_pool(self, tmp_path):
        path, config = str(tmp_path / "db"), make_config(DurabilityMode.NVM)
        db = Database(path, config)
        db.create_table("t", {"k": DataType.INT64})
        db.create_index("t", "k")
        db.insert_many("t", [{"k": i // 2} for i in range(5000)])
        db.merge("t")
        db.crash()
        db = Database(path, config)
        try:
            table = db.table("t")
            index = db._indexes[table.table_id]["k"].group_key
            dictionary = table.main.columns[0].dictionary
            vectors = (index.offsets_vector, index.positions_vector, dictionary.values)
            assert [v.chunk_capacity for v in vectors] == [len(v) for v in vectors]
            code = dictionary.code_of(1234)
            assert index.lookup(code).tolist() == [2468, 2469]
            assert np.shares_memory(index.lookup(code), index.positions_vector.view())
            assert np.shares_memory(
                dictionary.values_array(), dictionary.values.view()
            )
            assert db.query("t", Eq("k", 1234)).count == 2
        finally:
            db.close()
