"""MVCC visibility-cache correctness: hits are free, never stale.

The cache keeps DRAM copies of begin/end stamped by
``(mutation count, row count)``; every publish (insert), commit fix-up,
rollback, and merge must invalidate it — a scan may never see a stale
mask — and a repeated read-only scan must cost zero NVM vector reads.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.obs import get_registry
from repro.query.aggregate import aggregate
from repro.query.predicate import Gt
from repro.nvm.pvector import PVector
from repro.storage.mvcc import INFINITY_CID, MvccColumns, _extreme
from repro.storage.types import DataType
from repro.storage.vector import VolatileVector

from tests.conftest import make_config

SCHEMA = {"k": DataType.INT64, "g": DataType.STRING}


def _counters():
    snap = get_registry().counters_snapshot()
    return (
        snap.get("mvcc_cache_hits_total", 0),
        snap.get("mvcc_cache_misses_total", 0),
    )


class TestInvalidation:
    def test_insert_visible_after_cached_scan(self, none_db):
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": i, "g": "a"} for i in range(10)])
        assert none_db.query("t").count == 10
        assert none_db.query("t").count == 10  # cached
        none_db.insert("t", {"k": 10, "g": "b"})
        assert none_db.query("t").count == 11

    def test_uncommitted_rows_stay_invisible(self, none_db):
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": 0, "g": "a"}])
        assert none_db.query("t").count == 1
        txn = none_db.begin()
        txn.insert("t", {"k": 1, "g": "b"})
        # The insert grew the begin vector -> cache invalidated, but the
        # row is uncommitted: outside observers still see one row.
        assert none_db.query("t").count == 1
        txn.commit()
        assert none_db.query("t").count == 2

    def test_delete_invalidates_after_cached_scan(self, none_db):
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": i, "g": "a"} for i in range(5)])
        assert none_db.query("t").count == 5  # warm the cache
        with none_db.begin() as txn:
            for ref in txn.query("t", Gt("k", 2)).refs():
                txn.delete("t", ref)
        # The commit fixed up end_cid in place (no length change): the
        # mutation counter must have invalidated the cached end array.
        assert sorted(none_db.query("t").column("k")) == [0, 1, 2]

    def test_update_invalidates_after_cached_scan(self, none_db):
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": i, "g": "old"} for i in range(4)])
        assert none_db.query("t").count == 4
        with none_db.begin() as txn:
            for ref in txn.query("t", Gt("k", 1)).refs():
                txn.update("t", ref, {"g": "new"})
        grades = none_db.query("t").column("g")
        assert sorted(grades) == ["new", "new", "old", "old"]

    def test_rollback_restores_visibility(self, none_db):
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": i, "g": "a"} for i in range(3)])
        assert none_db.query("t").count == 3
        txn = none_db.begin()
        for ref in txn.query("t").refs():
            txn.delete("t", ref)
        assert none_db.query("t").count == 3  # uncommitted delete hidden
        txn.abort()
        assert none_db.query("t").count == 3

    def test_merge_scan_stays_correct(self, none_db):
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": i, "g": "a"} for i in range(20)])
        assert none_db.query("t").count == 20
        none_db.merge("t")
        assert none_db.query("t").count == 20
        none_db.insert("t", {"k": 20, "g": "b"})
        assert none_db.query("t").count == 21

    def test_concurrent_inserts_never_yield_stale_counts(self, none_db):
        """Readers racing a writer must only ever observe committed
        prefixes — a stale cached mask would show a count that later
        *decreases* or exceeds what was committed."""
        none_db.create_table("t", SCHEMA)
        batches = 20
        stop = threading.Event()
        seen: list[int] = []
        errors: list[str] = []

        def reader():
            last = 0
            while not stop.is_set():
                count = none_db.query("t").count
                if count < last:
                    errors.append(f"count went backwards: {last} -> {count}")
                    return
                last = count
                seen.append(count)

        thread = threading.Thread(target=reader)
        thread.start()
        for batch in range(batches):
            none_db.bulk_insert(
                "t", [{"k": batch * 5 + i, "g": "a"} for i in range(5)]
            )
        stop.set()
        thread.join()
        assert not errors
        assert none_db.query("t").count == batches * 5
        assert all(count % 5 == 0 for count in seen), (
            "reader observed a partially published batch"
        )


class TestZeroReadTraffic:
    def test_repeated_scan_reads_nothing(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        try:
            db.create_table("t", SCHEMA)
            db.bulk_insert("t", [{"k": i, "g": "ab"[i % 2]} for i in range(2000)])
            db.merge("t")
            db.bulk_insert("t", [{"k": i, "g": "c"} for i in range(50)])
            stats = db._pool.stats

            first = aggregate(db.query("t", Gt("k", 5)), "count")
            hits0, misses0 = _counters()
            stats.reset()
            second = aggregate(db.query("t", Gt("k", 5)), "count")
            hits1, misses1 = _counters()

            assert first == second
            # Cache hit: not a single byte read from the NVM pool, no
            # new views, and the obs counters prove the hit.
            assert stats.bytes_read == 0
            assert stats.views_created == 0
            assert hits1 > hits0
            assert misses1 == misses0
        finally:
            db.close()

    def test_miss_then_hit_counters(self, none_db):
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": 1, "g": "a"}])
        hits0, misses0 = _counters()
        none_db.query("t")
        hits1, misses1 = _counters()
        assert misses1 > misses0  # first scan fills the cache
        none_db.query("t")
        hits2, misses2 = _counters()
        assert hits2 > hits1
        assert misses2 == misses1


class TestWatermark:
    def test_merged_main_takes_all_visible_path(self, none_db, monkeypatch):
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": i, "g": "a"} for i in range(100)])
        none_db.merge("t")
        mvcc = none_db.table("t").main.mvcc

        def no_copy():
            raise AssertionError("begin/end copied on the all-visible path")

        # At or above the merge horizon the watermark answers: every row
        # visible, and no begin/end copy is made to learn it ...
        monkeypatch.setattr(mvcc.begin, "to_numpy", no_copy)
        monkeypatch.setattr(mvcc.end, "to_numpy", no_copy)
        mask = mvcc.visible_mask(none_db.last_cid)
        assert mask.all() and mask.size == 100
        # ... below it, per-row compares still apply.
        monkeypatch.undo()
        assert not mvcc.visible_mask(0).any()

    def test_mask_is_fresh_not_cached_storage(self, none_db):
        """Callers AND into the returned mask in place; a second call
        must not observe the mutation."""
        none_db.create_table("t", SCHEMA)
        none_db.bulk_insert("t", [{"k": i, "g": "a"} for i in range(8)])
        mvcc = none_db.table("t").delta.mvcc
        mask = mvcc.visible_mask(none_db.last_cid)
        mask[:] = False
        again = mvcc.visible_mask(none_db.last_cid)
        assert again.all()

    def test_threads_racing_a_miss_below_the_watermark(self, monkeypatch):
        """Every round invalidates the cache; then the threads miss
        together at a snapshot below the watermark, where each builds or
        takes the begin/end arrays. Each must get a correct mask of its
        own."""
        rows, threads, rounds = 4096, 4, 60
        begin, end = VolatileVector(np.uint64), VolatileVector(np.uint64)
        begin.extend(np.arange(1, rows + 1, dtype=np.uint64))
        end.extend(np.full(rows, INFINITY_CID, dtype=np.uint64))
        mvcc = MvccColumns(begin, end, VolatileVector(np.uint64))
        snapshot = rows // 2  # below max(begin): per-row compares
        copy = begin.to_numpy

        def slow_copy():
            time.sleep(0.001)  # every scanner misses before one publishes
            return copy()

        monkeypatch.setattr(begin, "to_numpy", slow_copy)
        barrier = threading.Barrier(threads + 1)
        masks: list = [None] * threads

        def scanner(i: int) -> None:
            for _ in range(rounds):
                barrier.wait()
                try:
                    masks[i] = mvcc.visible_mask(snapshot)
                except Exception as exc:  # fails the main thread's compare
                    masks[i] = exc
                barrier.wait()

        workers = [threading.Thread(target=scanner, args=(i,)) for i in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        for worker in workers:
            worker.start()
        try:
            for r in range(rounds):
                mvcc.set_end(r, snapshot)  # row r now ended at the snapshot
                expected = (copy() <= snapshot) & (end.to_numpy() > snapshot)
                barrier.wait()
                barrier.wait()
                for mask in masks:
                    np.testing.assert_array_equal(mask, expected)
                masks[0][:] = False  # fresh: no other thread's mask changes
                assert all(mask.sum() == expected.sum() for mask in masks[1:])
        except BaseException:
            barrier.abort()  # release the scanners, then report
            raise
        finally:
            sys.setswitchinterval(interval)
            for worker in workers:
                worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)

    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_watermark_read_in_place_equals_the_copy(self, pool, chunk):
        rows = 1000
        rng = np.random.default_rng(chunk)
        begin = PVector.create(pool, np.uint64, chunk_capacity=chunk)
        begin.extend(rng.integers(1, 10**6, size=rows, dtype=np.uint64))
        # A merged main's end: chunks never stored to read as the fill.
        end = PVector.create(pool, np.uint64, chunk_capacity=chunk, fill=INFINITY_CID)
        end.extend(np.broadcast_to(np.uint64(INFINITY_CID), rows + 5))
        for row in (3, 500):
            end.set(row, 10**7 + row)
        end.set(rows + 2, 1)  # a torn tail past the begin vector's rows
        for n in (0, 1, chunk, rows):
            assert _extreme(begin, n, np.maximum.reduce, 0) == (
                int(begin.to_numpy()[:n].max()) if n else 0
            )
            assert _extreme(end, n, np.minimum.reduce, INFINITY_CID) == (
                int(end.to_numpy()[:n].min()) if n else INFINITY_CID
            )
        assert _extreme(end, rows, np.minimum.reduce, INFINITY_CID) == 10**7 + 3
