"""Unit tests for the persistent vector."""

import sys
import threading

import numpy as np
import pytest

from repro.nvm.errors import NvmError
from repro.nvm.pool import PMemMode, PMemPool
from repro.nvm.pvector import PVector


class TestBasics:
    def test_empty(self, pool):
        v = PVector.create(pool, np.uint64)
        assert len(v) == 0
        assert v.to_numpy().size == 0

    def test_append_returns_indexes(self, pool):
        v = PVector.create(pool, np.uint64)
        assert v.append(10) == 0
        assert v.append(20) == 1
        assert int(v.get(0)) == 10
        assert int(v.get(1)) == 20

    def test_getitem(self, pool):
        v = PVector.create(pool, np.int64)
        v.append(-5)
        assert int(v[0]) == -5

    def test_all_dtypes(self, pool):
        for dtype, value in [
            (np.uint8, 200),
            (np.uint16, 60000),
            (np.uint32, 2**31),
            (np.uint64, 2**63),
            (np.int64, -(2**62)),
            (np.float64, 3.25),
        ]:
            v = PVector.create(pool, dtype)
            v.append(value)
            assert v.get(0) == np.asarray(value, dtype=dtype)

    def test_unsupported_dtype_rejected(self, pool):
        with pytest.raises(NvmError):
            PVector.create(pool, np.float32)

    def test_bad_chunk_capacity_rejected(self, pool):
        with pytest.raises(ValueError):
            PVector.create(pool, np.uint64, chunk_capacity=0)

    def test_out_of_range_get(self, pool):
        v = PVector.create(pool, np.uint64)
        v.append(1)
        with pytest.raises(IndexError):
            v.get(1)

    def test_out_of_range_set(self, pool):
        v = PVector.create(pool, np.uint64)
        with pytest.raises(IndexError):
            v.set(0, 1)


class TestGrowth:
    def test_spans_many_chunks(self, pool):
        v = PVector.create(pool, np.uint64, chunk_capacity=8)
        for i in range(100):
            v.append(i)
        assert len(v) == 100
        assert list(v.to_numpy()) == list(range(100))

    def test_directory_growth(self, pool):
        # 16 initial dir slots * chunk_capacity 2 = 32 elements before the
        # directory must grow.
        v = PVector.create(pool, np.uint64, chunk_capacity=2)
        v.extend(np.arange(200, dtype=np.uint64))
        assert list(v.to_numpy()) == list(range(200))

    def test_extend_across_chunk_boundaries(self, pool):
        v = PVector.create(pool, np.uint32, chunk_capacity=16)
        v.append(99)
        v.extend(np.arange(50, dtype=np.uint32))
        assert len(v) == 51
        assert int(v.get(0)) == 99
        assert int(v.get(50)) == 49

    def test_extend_empty(self, pool):
        v = PVector.create(pool, np.uint64)
        v.extend(np.empty(0, dtype=np.uint64))
        assert len(v) == 0

    def test_iter_views_cover_exact_prefix(self, pool):
        v = PVector.create(pool, np.uint64, chunk_capacity=8)
        v.extend(np.arange(20, dtype=np.uint64))
        views = list(v.iter_views())
        assert [len(view) for view in views] == [8, 8, 4]
        assert list(np.concatenate(views)) == list(range(20))


class TestFill:
    def test_racing_first_stores_materialise_each_chunk_once(self, pool):
        """Eight threads store into the same unmaterialised chunks at
        once: every store lands, and each chunk gets one block — a
        second one would take the stores the first had already got."""
        cap, chunks, writers = 64, 64, 8
        vec = PVector.create(pool, np.uint64, chunk_capacity=cap, fill=0)
        vec.extend(np.zeros(cap * chunks, dtype=np.uint64))
        before = pool.space()["allocated_bytes"]
        start = threading.Barrier(writers)

        def store(t):
            start.wait(timeout=30)
            for c in range(chunks):
                vec.set(c * cap + t, t + 1)

        threads = [threading.Thread(target=store, args=(t,)) for t in range(writers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        expected = np.zeros((chunks, cap), dtype=np.uint64)
        expected[:, :writers] = np.arange(1, writers + 1)
        for reader in (vec, PVector.attach(pool, vec.offset)):
            assert reader.to_numpy().tolist() == expected.ravel().tolist()
        assert pool.space()["allocated_bytes"] - before == chunks * cap * 8


class TestPersistence:
    def test_attach_after_clean_close(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024)
        v = PVector.create(pool, np.uint64, chunk_capacity=4)
        v.extend(np.arange(37, dtype=np.uint64))
        off = v.offset
        pool.set_root(off)
        pool.close()
        pool = PMemPool.open(pool_dir)
        v2 = PVector.attach(pool, pool.root_offset)
        assert list(v2.to_numpy()) == list(range(37))
        v2.append(37)
        assert len(v2) == 38
        pool.close()

    def test_torn_append_invisible(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024, mode=PMemMode.STRICT)
        v = PVector.create(pool, np.uint64)
        v.append(1)
        v.append(2)
        off = v.offset
        pool.set_root(off)
        # Simulate a torn append: element written but size store unflushed.
        # We model it by writing size directly without flushing.
        pool.write_u64(off, 3)
        pool.crash()
        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        v2 = PVector.attach(pool, pool.root_offset)
        assert len(v2) == 2
        pool.close()

    def test_published_appends_survive_crash(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024, mode=PMemMode.STRICT)
        v = PVector.create(pool, np.uint64, chunk_capacity=4)
        for i in range(19):
            v.append(i * 3)
        pool.set_root(v.offset)
        pool.crash()
        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        v2 = PVector.attach(pool, pool.root_offset)
        assert list(v2.to_numpy()) == [i * 3 for i in range(19)]
        pool.close()

    def test_unpersisted_set_lost(self, pool_dir):
        """A store that was flushed but never fenced is not durable: at
        survivor 0 the crash takes it. (A store that was never flushed
        is test_nvm_pool.py::test_unflushed_store_lost's.)"""
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024, mode=PMemMode.STRICT)
        v = PVector.create(pool, np.uint64)
        v.append(5)
        pool.set_root(v.offset)
        v.set(0, 99, fence=False)
        pool.crash()
        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        v2 = PVector.attach(pool, pool.root_offset)
        assert int(v2.get(0)) == 5
        pool.close()

    def test_unfenced_set_rides_the_next_drain(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024, mode=PMemMode.STRICT)
        v = PVector.create(pool, np.uint64)
        v.extend(np.arange(64, dtype=np.uint64))
        pool.set_root(v.offset)
        v.set(0, 99, fence=False)
        v.set(40, 7)  # another line; its drain covers both flushes
        pool.crash()
        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        v2 = PVector.attach(pool, pool.root_offset)
        assert (int(v2.get(0)), int(v2.get(40))) == (99, 7)
        pool.close()

    def test_persisted_set_survives(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=2 * 1024 * 1024, mode=PMemMode.STRICT)
        v = PVector.create(pool, np.uint64)
        v.append(5)
        pool.set_root(v.offset)
        v.set(0, 99)
        pool.crash()
        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        v2 = PVector.attach(pool, pool.root_offset)
        assert int(v2.get(0)) == 99
        pool.close()
