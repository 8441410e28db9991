"""Unit tests for the persistent memory pool."""

import os
import threading

import numpy as np
import pytest

from repro.nvm.errors import PoolCorruptError, PoolFullError, PoolModeError
from repro.nvm.latency import LatencyModel
from repro.nvm.pool import HEADER_SIZE, PMemMode, PMemPool

EXTENT = 2 * 1024 * 1024


class TestLifecycle:
    def test_create_and_reopen(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT)
        off = pool.allocate(128)
        pool.write(off, b"hello")
        pool.persist(off, 5)
        pool.set_root(off)
        pool.close()
        again = PMemPool.open(pool_dir)
        assert again.read(again.root_offset, 5) == b"hello"
        again.close()

    def test_create_twice_fails(self, pool_dir):
        PMemPool.create(pool_dir, extent_size=EXTENT).close()
        with pytest.raises(PoolModeError):
            PMemPool.create(pool_dir, extent_size=EXTENT)

    def test_open_missing_fails(self, tmp_path):
        with pytest.raises(PoolCorruptError):
            PMemPool.open(str(tmp_path / "nope"))

    def test_exists(self, pool_dir):
        assert not PMemPool.exists(pool_dir)
        PMemPool.create(pool_dir, extent_size=EXTENT).close()
        assert PMemPool.exists(pool_dir)

    def test_clean_shutdown_flag(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT)
        pool.close(clean=True)
        pool = PMemPool.open(pool_dir)
        assert pool.was_clean_shutdown
        pool.mark_opened()
        pool.close(clean=False)
        pool = PMemPool.open(pool_dir)
        assert not pool.was_clean_shutdown
        pool.close()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps"), reason="needs Linux smaps"
    )
    def test_a_dead_engine_gives_its_pages_back(self, tmp_path):
        """A crashed engine that only the cyclic collector could free
        holds mappings (its cached views still export them), but no
        resident pages."""
        import gc
        import weakref

        from repro.core.config import DurabilityMode
        from repro.core.database import Database
        from repro.query.predicate import Eq
        from repro.storage.types import DataType
        from tests.conftest import make_config

        path = str(tmp_path / "db")

        def extent_rss_kb() -> list[int]:
            out, current = [], None
            with open("/proc/self/smaps") as f:
                for line in f:
                    fields = line.split()
                    if "-" in fields[0] and len(fields) >= 5:
                        current = fields[-1] if len(fields) == 6 else None
                    elif fields[0] == "Rss:" and current is not None:
                        if current.startswith(path) and current.endswith(".pm"):
                            out.append(int(fields[1]))
            return out

        gc.disable()
        try:
            db = Database(path, make_config(DurabilityMode.NVM))
            db.create_table("t", {"k": DataType.INT64, "v": DataType.STRING})
            db.create_index("t", "k")
            db.insert_many("t", [{"k": i, "v": f"v{i}"} for i in range(5000)])
            assert db.query("t", Eq("k", 7)).count == 1
            db.cycle = db
            assert sum(extent_rss_kb()) > 0
            db.crash()
            alive = weakref.ref(db)
            del db
            assert alive() is not None, "the cycle keeps the engine"
            rss = extent_rss_kb()
            assert rss, "its views keep the extent mappings"
            assert rss == [0] * len(rss)
        finally:
            gc.enable()
            gc.collect()

    def test_bad_extent_size_rejected(self, pool_dir):
        with pytest.raises(ValueError):
            PMemPool.create(pool_dir, extent_size=1000)

    def test_corrupt_magic_detected(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT)
        pool.close()
        path = os.path.join(pool_dir, "extent_0000.pm")
        with open(path, "r+b") as f:
            f.write(b"\xde\xad\xbe\xef")
        with pytest.raises(PoolCorruptError):
            PMemPool.open(pool_dir)


class TestReadWrite:
    def test_bytes_roundtrip(self, pool):
        off = pool.allocate(64)
        pool.write(off, b"abcdef")
        assert pool.read(off, 6) == b"abcdef"

    def test_u64_roundtrip(self, pool):
        off = pool.allocate(64)
        pool.write_u64(off, 2**63 + 17)
        assert pool.read_u64(off) == 2**63 + 17

    def test_u32_roundtrip(self, pool):
        off = pool.allocate(64)
        pool.write_u32(off, 2**31 + 3)
        assert pool.read_u32(off) == 2**31 + 3

    def test_i64_roundtrip(self, pool):
        off = pool.allocate(64)
        pool.write_i64(off, -12345)
        assert pool.read_i64(off) == -12345

    def test_unaligned_u64_rejected(self, pool):
        off = pool.allocate(64)
        with pytest.raises(PoolModeError):
            pool.write_u64(off + 3, 1)

    def test_array_roundtrip(self, pool):
        arr = np.arange(100, dtype=np.uint64)
        off = pool.allocate(arr.nbytes)
        pool.write_array(off, arr)
        assert (pool.read_array(off, np.uint64, 100) == arr).all()

    def test_view_is_zero_copy_and_readonly(self, pool):
        arr = np.arange(50, dtype=np.int64)
        off = pool.allocate(arr.nbytes)
        pool.write_array(off, arr)
        view = pool.view(off, np.int64, 50)
        assert (view == arr).all()
        assert not view.flags.writeable
        pool.write_array(off, arr * 2)
        assert view[1] == 2  # zero copy: sees the new store

    def test_view_survives_growth(self, pool):
        off = pool.allocate(8)
        pool.write_u64(off, 42)
        view = pool.view(off, np.uint64, 1)
        # Force extent growth, then check the old view still reads.
        pool.allocate(EXTENT - 1024)
        pool.allocate(EXTENT // 2)
        assert pool.size >= 2 * EXTENT
        assert view[0] == 42


class TestAllocator:
    def test_alignment(self, pool):
        a = pool.allocate(10, align=64)
        assert a % 64 == 0
        b = pool.allocate(10, align=64)
        assert b % 64 == 0 and b > a

    def test_never_spans_extent(self, pool):
        # Allocate nearly a full extent, then ask for a block that would
        # straddle the boundary.
        pool.allocate(EXTENT - HEADER_SIZE - 4096)
        off = pool.allocate(64 * 1024)
        assert off // EXTENT == (off + 64 * 1024 - 1) // EXTENT

    def test_oversized_allocation_rejected(self, pool):
        with pytest.raises(PoolFullError):
            pool.allocate(EXTENT + 1)

    def test_zero_allocation_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.allocate(0)

    def test_growth_persists_across_reopen(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT)
        for _ in range(3):
            pool.allocate(EXTENT - 4096)
        size = pool.size
        assert size >= 3 * EXTENT
        pool.close()
        again = PMemPool.open(pool_dir)
        assert again.size == size
        again.close()

    def test_head_persisted_per_allocation(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT, mode=PMemMode.STRICT)
        first = pool.allocate(256)
        pool.crash()
        again = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        second = again.allocate(256)
        assert second >= first + 256
        again.close()


class TestStrictCrashSemantics:
    def test_unflushed_store_lost(self, strict_pool, pool_dir):
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 1)
        strict_pool.persist(off, 8)
        strict_pool.write_u64(off, 2)  # no flush
        strict_pool.crash()
        pool = PMemPool.open(pool_dir)
        assert pool.read_u64(off) == 1
        pool.close()

    def test_flushed_store_survives(self, strict_pool, pool_dir):
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 7)
        strict_pool.persist(off, 8)
        strict_pool.crash()
        pool = PMemPool.open(pool_dir)
        assert pool.read_u64(off) == 7
        pool.close()

    def test_flush_without_write_is_noop(self, strict_pool):
        off = strict_pool.allocate(64)
        strict_pool.flush(off, 64)  # nothing dirty — fine
        strict_pool.drain()

    def test_partial_flush_line_granularity(self, strict_pool, pool_dir):
        off = strict_pool.allocate(128)
        strict_pool.write(off, b"A" * 128)
        strict_pool.flush(off, 64)  # only the first line
        strict_pool.drain()
        strict_pool.crash()
        pool = PMemPool.open(pool_dir)
        assert pool.read(off, 64) == b"A" * 64
        assert pool.read(off + 64, 64) == b"\x00" * 64
        pool.close()

    def test_survivor_fraction_one_keeps_everything(self, strict_pool, pool_dir):
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 9)
        strict_pool.crash(survivor_fraction=1.0, seed=1)
        pool = PMemPool.open(pool_dir)
        assert pool.read_u64(off) == 9
        pool.close()

    def test_survivor_fraction_is_seeded(self, tmp_path):
        outcomes = []
        for run in range(2):
            d = str(tmp_path / f"p{run}")
            pool = PMemPool.create(d, extent_size=EXTENT, mode=PMemMode.STRICT)
            offs = [pool.allocate(64) for _ in range(32)]
            for i, off in enumerate(offs):
                pool.write_u64(off, i + 1)
            pool.crash(survivor_fraction=0.5, seed=99)
            again = PMemPool.open(d)
            outcomes.append(tuple(again.read_u64(off) for off in offs))
            again.close()
        assert outcomes[0] == outcomes[1]

    def test_rewrite_after_flush_reverts_to_flushed_value(
        self, strict_pool, pool_dir
    ):
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 5)
        strict_pool.persist(off, 8)
        strict_pool.write_u64(off, 6)
        strict_pool.write_u64(off, 7)  # still unflushed
        strict_pool.crash()
        pool = PMemPool.open(pool_dir)
        assert pool.read_u64(off) == 5
        pool.close()


class TestFlushIsNotDurableUntilDrained:
    """CLWB + SFENCE: a flush starts a write-back, only the flushing
    thread's drain finishes it. Survivor 0 loses every line that is
    dirty or unfenced, survivor 1 keeps them all."""

    @staticmethod
    def _reopened(pool_dir, off):
        pool = PMemPool.open(pool_dir)
        try:
            return pool.read_u64(off)
        finally:
            pool.close()

    def test_flushed_but_never_drained_is_lost(self, strict_pool, pool_dir):
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 1)
        strict_pool.persist(off, 8)
        strict_pool.write_u64(off, 2)
        strict_pool.flush(off, 8)  # no drain
        strict_pool.crash()
        assert self._reopened(pool_dir, off) == 1

    def test_a_later_drain_covers_every_earlier_flush(self, strict_pool, pool_dir):
        a, b = strict_pool.allocate(64), strict_pool.allocate(64)
        strict_pool.write_u64(a, 1)
        strict_pool.flush(a, 8)
        strict_pool.write_u64(b, 2)
        strict_pool.persist(b, 8)
        strict_pool.crash()
        assert (self._reopened(pool_dir, a), self._reopened(pool_dir, b)) == (1, 2)

    @pytest.mark.parametrize(
        "survivor,seed,expected",
        # Seeds chosen for their first two draws at survivor 0.5 — is
        # the dirty line kept, is the unfenced one: 0 neither, 1 only
        # the dirty one (the older loss wins), 10 only the unfenced
        # one, 4 both.
        [(0.0, 0, 1), (1.0, 0, 3), (0.5, 0, 1), (0.5, 1, 1), (0.5, 10, 2), (0.5, 4, 3)],
    )
    def test_flushed_then_redirtied_lands_on_one_of_three_states(
        self, strict_pool, pool_dir, survivor, seed, expected
    ):
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 1)
        strict_pool.persist(off, 8)  # durable: 1
        strict_pool.write_u64(off, 2)
        strict_pool.flush(off, 8)  # in flight: 2
        strict_pool.write_u64(off, 3)  # dirty: 3
        strict_pool.crash(survivor_fraction=survivor, seed=seed)
        assert self._reopened(pool_dir, off) == expected

    def test_reflush_keeps_the_oldest_durable_image(self, strict_pool, pool_dir):
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 1)
        strict_pool.persist(off, 8)
        for value in (2, 3):
            strict_pool.write_u64(off, value)
            strict_pool.flush(off, 8)
        strict_pool.crash()
        assert self._reopened(pool_dir, off) == 1

    def test_another_threads_drain_fences_nothing_of_mine(
        self, strict_pool, pool_dir
    ):
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 1)
        strict_pool.flush(off, 8)
        other = threading.Thread(target=strict_pool.drain)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        strict_pool.crash()
        assert self._reopened(pool_dir, off) == 0

    def test_a_flush_of_the_same_line_by_a_fencing_thread_covers_it(
        self, strict_pool, pool_dir
    ):
        # A write-back carries the whole line: thread B flushing and
        # fencing line L makes A's earlier store to L durable too, even
        # though A never drained.
        off = strict_pool.allocate(64)
        strict_pool.write_u64(off, 1)
        strict_pool.flush(off, 8)

        def neighbour():
            strict_pool.write_u64(off + 8, 2)
            strict_pool.persist(off + 8, 8)

        other = threading.Thread(target=neighbour)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        strict_pool.crash()
        assert self._reopened(pool_dir, off) == 1
        assert self._reopened(pool_dir, off + 8) == 2

    def test_fast_mode_tracks_nothing(self, pool):
        off = pool.allocate(64)
        pool.write_u64(off, 1)
        pool.flush(off, 8)
        assert not pool._undo and not pool._parked and not pool._flushed_by


class TestAccounting:
    def test_write_and_flush_counted(self, pool):
        off = pool.allocate(256)
        before_flushes = pool.stats.lines_flushed
        pool.write(off, b"x" * 200)
        pool.flush(off, 200)
        pool.drain()
        assert pool.stats.bytes_written >= 200
        assert pool.stats.lines_flushed - before_flushes == 4  # 200B -> 4 lines
        assert pool.stats.drain_calls >= 1

    def test_modelled_time_scales_with_multiplier(self, pool_dir):
        model = LatencyModel(write_multiplier=4.0)
        pool = PMemPool.create(pool_dir, extent_size=EXTENT, latency=model)
        off = pool.allocate(64)
        pool.write_u64(off, 1)
        pool.persist(off, 8)
        single = LatencyModel(write_multiplier=1.0)
        base = pool.stats.lines_flushed * single.write_ns_per_line
        assert pool.stats.modelled_ns() > base
        pool.close()

    def test_stats_reset(self, pool):
        off = pool.allocate(64)
        pool.write_u64(off, 1)
        pool.stats.reset()
        assert pool.stats.bytes_written == 0
        assert pool.stats.allocations == 0
