"""Stateful (rule-based) property tests for the persistent structures."""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.nvm.pool import PMemMode, PMemPool
from repro.nvm.pvector import PVector


class PVectorModel(RuleBasedStateMachine):
    """PVector against a list model, with clean-close reattaches."""

    def __init__(self):
        super().__init__()
        import tempfile

        self._dir = tempfile.mkdtemp()
        self.pool = PMemPool.create(
            self._dir + "/pool", extent_size=2 * 1024 * 1024
        )
        self.vec = PVector.create(self.pool, np.uint64, chunk_capacity=4)
        self.pool.set_root(self.vec.offset)
        self.model: list[int] = []

    @rule(value=st.integers(0, 2**63))
    def append(self, value):
        assert self.vec.append(value) == len(self.model)
        self.model.append(value)

    @rule(values=st.lists(st.integers(0, 2**63), max_size=15))
    def extend(self, values):
        self.vec.extend(np.asarray(values, dtype=np.uint64))
        self.model.extend(values)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def set_element(self, data):
        index = data.draw(st.integers(0, len(self.model) - 1))
        value = data.draw(st.integers(0, 2**63))
        self.vec.set(index, value)
        self.model[index] = value

    @rule()
    def reopen(self):
        self.pool.close()
        self.pool = PMemPool.open(self._dir + "/pool")
        self.vec = PVector.attach(self.pool, self.pool.root_offset)

    @invariant()
    def contents_match(self):
        assert list(self.vec.to_numpy()) == self.model

    def teardown(self):
        if not self.pool._closed:
            self.pool.close()


#: (dtype, fill) pairs: the fill word holds each in its low bytes.
FILLS = [
    (np.uint64, 2**64 - 1),
    (np.uint64, 0),
    (np.int64, -3),
    (np.float64, 2.5),
    (np.uint8, 200),
]


class FillVectorModel(RuleBasedStateMachine):
    """A PVector with a fill against a numpy array. Every read path
    answers unmaterialised chunks from the fill, ``blocks`` names exactly
    the chunks a non-fill store reached, and a crash (every operation
    here is fenced) loses nothing: the fill and the slots are durable."""

    @initialize(kind=st.sampled_from(FILLS), cap=st.sampled_from([1, 3, 5]))
    def start(self, kind, cap):
        import tempfile

        self.dtype, self.fill = np.dtype(kind[0]), kind[1]
        self.cap = cap
        self._dir = tempfile.mkdtemp()
        self.pool = PMemPool.create(
            self._dir + "/pool", extent_size=1024 * 1024, mode=PMemMode.STRICT
        )
        self.vec = PVector.create(self.pool, self.dtype, cap, fill=self.fill)
        self.pool.set_root(self.vec.offset)
        self.model = np.empty(0, self.dtype)
        self.materialised: set[int] = set()

    def _batch(self, data, size):
        other = data.draw(st.sampled_from([0, 1, 7]))
        if data.draw(st.booleans()):  # all fill
            return np.full(size, self.fill, self.dtype)
        picks = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        return np.array([other if p else self.fill for p in picks], self.dtype)

    def _stored(self, start, values):
        for i in np.flatnonzero(values != np.asarray(self.fill, self.dtype)):
            self.materialised.add((start + int(i)) // self.cap)
        self.model[start : start + values.size] = values

    @rule(data=st.data(), size=st.integers(0, 20))
    def extend(self, data, size):
        values = self._batch(data, size)
        first = self.model.size
        assert self.vec.extend(values) == first
        self.model = np.concatenate([self.model, np.zeros(size, self.dtype)])
        self._stored(first, values)

    @precondition(lambda self: self.model.size)
    @rule(data=st.data())
    def set_one(self, data):
        index = data.draw(st.integers(0, self.model.size - 1))
        values = self._batch(data, 1)
        self.vec.set(index, values[0])
        self._stored(index, values)

    @precondition(lambda self: self.model.size)
    @rule(data=st.data())
    def set_range(self, data):
        start = data.draw(st.integers(0, self.model.size - 1))
        size = data.draw(st.integers(0, self.model.size - start))
        values = self._batch(data, size)
        self.vec.set_range(start, values)
        self._stored(start, values)

    @precondition(lambda self: self.model.size)
    @rule(data=st.data())
    def gather(self, data):
        picks = data.draw(
            st.lists(st.integers(0, self.model.size - 1), max_size=self.model.size)
        )
        assert self.vec.take(picks).tolist() == self.model[picks].tolist()
        for index in picks[:3]:
            assert self.vec.get(index) == self.model[index]

    @rule()
    def reattach(self):
        self.vec = PVector.attach(self.pool, self.vec.offset)

    @rule()
    def crash(self):
        self.pool.crash(survivor_fraction=0.0)
        self.pool = PMemPool.open(self._dir + "/pool", mode=PMemMode.STRICT)
        self.vec = PVector.attach(self.pool, self.pool.root_offset)

    @invariant()
    def reads_match(self):
        expected = self.model.tolist()
        assert self.vec.to_numpy().tolist() == expected
        assert self.vec.view().tolist() == expected
        views = list(self.vec.iter_views())
        assert [x for view in views for x in view.tolist()] == expected

    @invariant()
    def blocks_are_the_materialised_chunks(self):
        chunk_bytes = self.cap * self.dtype.itemsize
        chunks = [off for off, n in self.vec.blocks() if n == chunk_bytes]
        assert len(chunks) == len(self.materialised)

    def teardown(self):
        import shutil

        if not self.pool._closed:
            self.pool.close()
        shutil.rmtree(self._dir, ignore_errors=True)


TestPVectorModel = PVectorModel.TestCase
TestPVectorModel.settings = settings(max_examples=25, deadline=None, stateful_step_count=30)

TestFillVectorModel = FillVectorModel.TestCase
TestFillVectorModel.settings = settings(
    max_examples=40, deadline=None, stateful_step_count=30
)


def test_database_verify_clean(none_db):
    from repro.storage.types import DataType

    none_db.create_table("t", {"a": DataType.INT64})
    none_db.insert("t", {"a": 1})
    assert none_db.verify() == []


def test_database_verify_detects_damage(none_db):
    from repro.storage.types import DataType

    none_db.create_table("t", {"a": DataType.INT64})
    none_db.insert("t", {"a": 1})
    none_db.table("t").delta.mvcc.set_tid(0, 42)  # corrupt on purpose
    assert none_db.verify() != []
