"""Concurrent-writer regressions: allocators, misuse detection, the
bank-transfer stress oracle, and group-commit coordination.

Everything here drives the *same* engine objects from many threads —
the thread-safe MVCC commit pipeline is the contract under test, under
all three durability modes and all three group-commit policies.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.core.nvm_catalog import PersistentCidStore, PersistentTidAllocator
from repro.query.predicate import Eq
from repro.query.scan import scan
from repro.storage import vector as vector_module
from repro.storage.types import DataType
from repro.txn import txn_table
from repro.txn.errors import ConcurrentTransactionUse, TransactionConflict
from repro.txn.manager import VolatileCidStore, VolatileTidAllocator

from tests.conftest import make_config, stall_first_snapshot

THREADS = 16


def _hammer(n_threads, fn):
    """Run ``fn(thread_index)`` on ``n_threads`` started together."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def run(i):
        barrier.wait()
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestAllocators:
    """tid/cid allocation must stay unique and monotonic under races."""

    def test_volatile_tids_unique_across_threads(self):
        alloc = VolatileTidAllocator()
        drawn = [[] for _ in range(THREADS)]
        _hammer(THREADS, lambda i: drawn[i].extend(alloc.next() for _ in range(500)))
        flat = [t for per in drawn for t in per]
        assert len(set(flat)) == len(flat) == THREADS * 500
        assert min(flat) >= 1

    def test_persistent_tids_unique_across_threads(self, pool):
        root = pool.allocate(64)
        alloc = PersistentTidAllocator(pool, root)
        drawn = [[] for _ in range(THREADS)]
        # 300 draws per thread crosses several 1024-tid reservation
        # extensions, racing the NVM write with plain increments.
        _hammer(THREADS, lambda i: drawn[i].extend(alloc.next() for _ in range(300)))
        flat = [t for per in drawn for t in per]
        assert len(set(flat)) == len(flat) == THREADS * 300

    def test_volatile_cid_advance_never_goes_backwards(self):
        store = VolatileCidStore()
        cids = list(range(1, THREADS * 200 + 1))
        random.Random(3).shuffle(cids)
        chunks = [cids[i::THREADS] for i in range(THREADS)]
        _hammer(
            THREADS,
            lambda i: [store.advance(c) for c in chunks[i]],
        )
        assert store.last_cid == THREADS * 200

    def test_persistent_cid_advance_never_goes_backwards(self, pool):
        root = pool.allocate(64)
        store = PersistentCidStore(pool, root)
        cids = list(range(1, THREADS * 100 + 1))
        random.Random(5).shuffle(cids)
        chunks = [cids[i::THREADS] for i in range(THREADS)]
        _hammer(
            THREADS,
            lambda i: [store.advance(c) for c in chunks[i]],
        )
        assert store.last_cid == THREADS * 100
        # And the persisted copy matches what re-attach would read.
        assert pool.read_u64(root) == THREADS * 100

    def test_begin_abort_hammer_recycles_slots(self, tmp_path, monkeypatch):
        monkeypatch.setattr(txn_table, "TXN_SLOTS", THREADS * 2)
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        _hammer(
            THREADS,
            lambda i: [db.begin().abort() for _ in range(50)],
        )
        assert len(db._manager.active) == 0
        db.begin().abort()  # slots all recycled
        db.close()


class TestMisuseDetection:
    def test_one_context_from_two_threads_raises(self, none_db):
        none_db.create_table("t", {"a": DataType.INT64})
        txn = none_db.begin()
        # Pin the context to this thread, as if an operation were
        # mid-flight here, then drive it from a second thread.
        txn.ctx.enter_op()
        caught = []

        def other():
            try:
                txn.insert("t", {"a": 1})
            except ConcurrentTransactionUse as exc:
                caught.append(exc)

        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        txn.ctx.exit_op()
        assert len(caught) == 1
        assert "begin one transaction per thread" in str(caught[0])
        txn.insert("t", {"a": 2})  # same thread still works
        txn.commit()

    def test_same_thread_reentrancy_allowed(self, none_db):
        # update = invalidate + insert nests enter_op on one thread;
        # that must never trip the misuse detector.
        none_db.create_table("t", {"a": DataType.INT64})
        txn = none_db.begin()
        ref = txn.insert("t", {"a": 1})
        txn.update("t", ref, {"a": 2})
        txn.commit()
        assert none_db.query("t", Eq("a", 2)).count == 1

    def test_handoff_between_ops_is_legal(self, none_db):
        # Sequential use from different threads (a worker pool handing
        # a transaction around *between* operations) stays allowed.
        none_db.create_table("t", {"a": DataType.INT64})
        txn = none_db.begin()

        def step(value):
            txn.insert("t", {"a": value})

        for value in (1, 2):
            worker = threading.Thread(target=step, args=(value,))
            worker.start()
            worker.join()
        txn.commit()
        assert none_db.query("t").count == 2


ACCOUNTS = 12
INITIAL = 100
WRITERS = 8
TRANSFERS = 12


def _run_bank(db):
    """N writer threads move money between accounts; total is invariant."""
    db.create_table(
        "acct", {"id": DataType.INT64, "balance": DataType.INT64}
    )
    db.insert_many(
        "acct", [{"id": i, "balance": INITIAL} for i in range(ACCOUNTS)]
    )

    def writer(i):
        rng = random.Random(1000 + i)
        done = 0
        while done < TRANSFERS:
            src, dst = rng.sample(range(ACCOUNTS), 2)
            amount = rng.randint(1, 10)
            txn = db.begin()
            try:
                res_src = txn.query("acct", Eq("id", src))
                res_dst = txn.query("acct", Eq("id", dst))
                ref_src, bal_src = res_src.refs()[0], res_src.column("balance")[0]
                ref_dst, bal_dst = res_dst.refs()[0], res_dst.column("balance")[0]
                txn.update("acct", ref_src, {"balance": bal_src - amount})
                txn.update("acct", ref_dst, {"balance": bal_dst + amount})
                txn.commit()
                done += 1
            except TransactionConflict:
                txn.abort()  # retry with fresh snapshot

    _hammer(WRITERS, writer)
    return db


class TestBankTransferStress:
    """The concurrency oracle: money is conserved under every mode."""

    def _check_invariant(self, db):
        balances = db.query("acct").column("balance")
        assert len(balances) == ACCOUNTS
        assert sum(balances) == ACCOUNTS * INITIAL
        assert db.verify() == []

    def _check(self, db):
        self._check_invariant(db)
        assert db.stats()["commits"] >= WRITERS * TRANSFERS

    def test_conserved_in_every_mode(self, any_db):
        self._check(_run_bank(any_db))

    @pytest.mark.parametrize("group_size", [1, 4, 0], ids=["sync", "batch", "async"])
    def test_conserved_under_every_commit_policy(self, tmp_path, group_size):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.LOG, group_commit_size=group_size),
        )
        try:
            self._check(_run_bank(db))
            # Clean restart replays the log: the invariant must also
            # hold in the recovered image (close() syncs, so even the
            # async policy loses nothing on an orderly shutdown).
            db = db.restart()
            self._check_invariant(db)
        finally:
            db.close()

    def test_conserved_after_nvm_restart(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        try:
            self._check(_run_bank(db))
            db = db.restart()
            self._check_invariant(db)
        finally:
            db.close()


def test_racing_bulk_and_scalar_inserts_never_share_a_commit_id(any_db):
    """``bulk_insert`` draws its commit id under the commit lock like
    every other transaction: 4 threads x 200 mixed calls stamp 800
    distinct ids, and each returned id is the one its rows carry."""
    any_db.create_table("t", {"k": DataType.INT64})
    calls = 200
    returned = [[] for _ in range(4)]

    def writer(i):
        for j in range(calls):
            key = (i * calls + j) * 2
            if j % 2:
                any_db.insert("t", {"k": key})
            else:
                cid = any_db.bulk_insert("t", [{"k": key}, {"k": key + 1}])
                returned[i].append((cid, key))

    _hammer(4, writer)
    delta = any_db.table("t").delta
    stamps = delta.mvcc.begin.to_numpy()[: delta.row_count].tolist()
    keys = delta.decode_column(0)
    assert len(set(stamps)) == any_db.last_cid == 4 * calls
    stamp_of = dict(zip(keys, stamps))
    for cid, key in (pair for per in returned for pair in per):
        assert stamp_of[key] == stamp_of[key + 1] == cid
    assert any_db.verify() == []


class TestGroupCommit:
    def test_leader_fsync_covers_followers(self, tmp_path):
        # Sync commit with a modelled 4 ms device: while the leader
        # sleeps in fsync, other committers queue up and are released
        # by one later fsync — strictly fewer syncs than commits.
        db = Database(
            str(tmp_path / "db"),
            make_config(
                DurabilityMode.LOG,
                group_commit_size=1,
                wal_fsync_delay_s=0.004,
            ),
        )
        db.create_table("t", {"a": DataType.INT64})
        base_syncs = db.stats()["wal"]["syncs"]
        _hammer(6, lambda i: [db.insert("t", {"a": i}) for _ in range(6)])
        stats = db.stats()["wal"]
        assert stats["commits_acked"] == 36
        # Sync policy: every acked commit is durable before the ack.
        assert stats["commits_durable"] == 36
        assert stats["ack_durability_gap"] == 0
        assert stats["syncs"] - base_syncs < 36
        db.close()

    def test_async_mode_surfaces_durability_gap(self, tmp_path):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.LOG, group_commit_size=0),
        )
        db.create_table("t", {"a": DataType.INT64})
        for i in range(15):
            db.insert("t", {"a": i})
        stats = db.stats()["wal"]
        assert stats["commits_acked"] == 15
        assert stats["commits_durable"] == 0  # nothing fsynced yet
        assert stats["ack_durability_gap"] == 15
        db.close()  # close syncs: the gap must drain to zero
        stats = db._driver.extra_stats()["wal"]
        assert stats["commits_durable"] == 15
        assert stats["ack_durability_gap"] == 0

    def test_async_crash_loss_is_bounded_by_last_sync(self, tmp_path):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.LOG, group_commit_size=0),
        )
        db.create_table("t", {"a": DataType.INT64})
        for i in range(5):
            db.insert("t", {"a": i})
        db.checkpoint()  # durability horizon: everything before this
        for i in range(5, 10):
            db.insert("t", {"a": i})
        db.crash()
        recovered = Database(str(tmp_path / "db"), db.config)
        # Acked-but-unsynced commits are lost — that is the contract —
        # but nothing before the checkpoint may be, and the recovered
        # image is consistent.
        assert sorted(recovered.query("t").column("a")) == [0, 1, 2, 3, 4]
        assert recovered.verify() == []
        recovered.close()

    def test_batch_policy_fsyncs_once_per_group(self, tmp_path):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.LOG, group_commit_size=4),
        )
        db.create_table("t", {"a": DataType.INT64})
        base = db.stats()["wal"]["syncs"]
        for i in range(8):
            db.insert("t", {"a": i})
        assert db.stats()["wal"]["syncs"] - base == 2  # 8 commits / 4
        db.close()


# ----------------------------------------------------------------------
# Readers decode while a writer grows the dictionaries they decode from
# ----------------------------------------------------------------------


def test_concurrent_point_reads_while_dictionary_grows(tmp_path):
    """Four readers materialise indexed point reads (INT64 + STRING
    columns, every value distinct) beside one inserter. Nothing a reader
    decodes through may be shared mutable state without a latch: zero
    wrong rows, zero exceptions."""
    preloaded, reads_each = 60_000, 200
    db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
    db.create_table(
        "t", {"id": DataType.INT64, "name": DataType.STRING, "qty": DataType.INT64}
    )
    db.create_index("t", "id")
    db.insert_many(
        "t", [{"id": i, "name": f"n{i}", "qty": 3 * i} for i in range(preloaded)]
    )
    stop = threading.Event()
    wrong, errors = [], []

    def writer():
        i = preloaded
        try:
            while not stop.is_set():
                db.insert("t", {"id": i, "name": f"n{i}", "qty": 3 * i})
                i += 1
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(reads_each):
                k = rng.randrange(preloaded)
                rows = db.query("t", Eq("id", k)).rows()
                if rows != [{"id": k, "name": f"n{k}", "qty": 3 * k}]:
                    wrong.append((k, rows))
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
    inserter = threading.Thread(target=writer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        inserter.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        stop.set()
        inserter.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [inserter])
    assert errors == []
    assert wrong == []
    db.close()


def test_first_read_after_restart_races_an_insert_of_a_fresh_value(tmp_path):
    """After a restart the delta dictionary's lookup map is rebuilt by
    the first indexed read; an insert of a never-seen value lands inside
    that rebuild. The value must end up in the dictionary once, so that
    an indexed and an unindexed ``Eq`` both return every row holding it."""
    db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
    db.create_table("t", {"k": DataType.INT64, "v": DataType.INT64})
    db.create_index("t", "k")
    db.insert_many("t", [{"k": i % 50, "v": i} for i in range(200)])
    db = db.restart()
    table = db.table("t")
    dictionary = table.delta.dictionaries[table.schema.column_index("k")]
    snapshotted, resume = stall_first_snapshot(dictionary)
    errors = []

    def read():
        try:
            assert db.query("t", Eq("k", 7)).count == 4
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    def insert_fresh():
        try:
            assert snapshotted.wait(10)
            db.insert("t", {"k": 999, "v": -1})
            resume.set()
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=read), threading.Thread(target=insert_fresh)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    db.insert("t", {"k": 999, "v": -2})
    assert sorted(db.query("t", Eq("k", 999)).column("v")) == [-2, -1]
    unindexed = scan(table, snapshot_cid=db.last_cid, predicate=Eq("k", 999))
    assert sorted(unindexed.column("v")) == [-2, -1]
    assert dictionary.values_list().count(999) == 1
    db.close()


class TestVolatileVectorGrowth:
    """A DRAM vector grows by copying into a new buffer and swapping it
    in; a commit stamps ``begin``/``end`` from another thread without
    the delta's write lock. A stamp that lands in the old buffer after
    the copy is lost, and the committed row stays invisible."""

    @staticmethod
    def _store_during_growth(monkeypatch, store):
        """Grow a full vector with ``store`` fired, on another thread,
        right after the old buffer was copied and before the swap."""

        class Grown(np.ndarray):
            def __setitem__(self, index, value):
                super().__setitem__(index, value)
                if fire:  # the copy is done: race the swap
                    racer = threading.Thread(target=store, args=(vec,))
                    fire.clear()
                    racer.start()
                    racer.join(timeout=0.3)  # blocks while growth excludes it
                    racers.append(racer)

        class HookedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, dtype):
                return np.empty(shape, dtype).view(Grown)

        fire, racers = [True], []
        vec = vector_module.VolatileVector(np.uint64)
        vec.extend(np.full(vec._INITIAL_CAPACITY, 7, dtype=np.uint64))
        monkeypatch.setattr(vector_module, "np", HookedNumpy())
        vec.append(7)  # past capacity: grows
        assert racers, "growth never copied"
        for racer in racers:
            racer.join(timeout=10)
            assert not racer.is_alive()
        return vec

    def test_set_racing_growth_is_kept(self, monkeypatch):
        vec = self._store_during_growth(monkeypatch, lambda v: v.set(3, 99))
        assert int(vec.get(3)) == 99

    def test_set_range_racing_growth_is_kept(self, monkeypatch):
        vec = self._store_during_growth(
            monkeypatch, lambda v: v.set_range(10, np.array([5, 6], np.uint64))
        )
        assert [int(vec.get(10)), int(vec.get(11))] == [5, 6]

    def test_stamps_racing_batch_appends_all_land(self):
        """Stress: one thread appends in batches while three (more than
        the cores) stamp every slot as soon as it exists; none is lost."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                vec, n, k = vector_module.VolatileVector(np.uint64), 20_000, 3

                def stamp(first):
                    for i in range(first, n, k):
                        while i >= len(vec):
                            pass
                        vec.set(i, i + 1)

                stampers = [
                    threading.Thread(target=stamp, args=(j,)) for j in range(k)
                ]
                for t in stampers:
                    t.start()
                for _ in range(0, n, 50):
                    vec.extend(np.zeros(50, np.uint64))
                for t in stampers:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert np.array_equal(vec.to_numpy(), np.arange(1, n + 1))
        finally:
            sys.setswitchinterval(interval)
