"""Unit tests for transaction tables, the manager, and MVCC semantics."""

import pytest

from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.mvcc import INFINITY_CID, NO_TID
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.txn.errors import (
    TooManyActiveTransactions,
    TransactionAborted,
    TransactionConflict,
)
from repro.txn.manager import (
    TransactionManager,
    VolatileCidStore,
    VolatileTidAllocator,
)
from repro.txn import txn_table as txn_table_module
from repro.txn.txn_table import (
    OP_INVALIDATE,
    PersistentTxnTable,
    SLOT_ACTIVE,
    SLOT_COMMITTING,
    SLOT_FREE,
    VolatileTxnTable,
)

SCHEMA = Schema.of(id=DataType.INT64, name=DataType.STRING)


@pytest.fixture(params=["volatile", "persistent"])
def txn_table(request, pool):
    if request.param == "volatile":
        return VolatileTxnTable(slot_count=8)
    return PersistentTxnTable.create(pool, slot_count=8)


#: What a slot holds: only the persistent table keeps it.
persistent_only = pytest.mark.parametrize("txn_table", ["persistent"], indirect=True)


def test_the_volatile_table_keeps_only_free_slots():
    """LOG and NONE durability is the WAL: the record and commit-point
    calls store nothing, and a slot comes back whatever was done in it."""
    table = VolatileTxnTable(slot_count=1)
    slot = table.begin(tid=1)
    table.record(slot, OP_INVALIDATE, 1, 1)
    table.unrecord(slot)
    table.record(slot, OP_INVALIDATE, 1, 2)
    table.set_committing(slot, cid=3)
    with pytest.raises(TooManyActiveTransactions):
        table.begin(tid=2)
    table.mark_free(slot)
    assert table.begin(tid=2) == slot
    assert not hasattr(table, "records") and not hasattr(table, "in_flight")


class TestTxnTables:
    @persistent_only
    def test_begin_claims_active_slot(self, txn_table):
        slot = txn_table.begin(tid=5)
        assert txn_table.state(slot) == SLOT_ACTIVE
        assert txn_table.tid(slot) == 5

    def test_slot_exhaustion(self, txn_table):
        for i in range(8):
            txn_table.begin(tid=i + 1)
        with pytest.raises(TooManyActiveTransactions):
            txn_table.begin(tid=99)

    def test_free_recycles_slot(self, txn_table):
        slot = txn_table.begin(tid=1)
        txn_table.mark_free(slot)
        again = txn_table.begin(tid=2)
        assert again == slot

    @persistent_only
    def test_free_marks_the_slot_free(self, txn_table):
        slot = txn_table.begin(tid=1)
        txn_table.mark_free(slot)
        assert txn_table.state(slot) == SLOT_FREE

    def test_the_default_cap_is_the_module_constant(self, pool, monkeypatch):
        monkeypatch.setattr(txn_table_module, "TXN_SLOTS", 3)
        for table in (VolatileTxnTable(), PersistentTxnTable.create(pool)):
            assert table.slot_count == 3

    @persistent_only
    def test_records_in_order(self, txn_table):
        slot = txn_table.begin(tid=1)
        expected = [(OP_INVALIDATE, 1, i) for i in range(70)]  # spans chunks
        for kind, table_id, ref in expected:
            txn_table.record(slot, kind, table_id, ref)
        assert txn_table.records(slot) == expected

    @persistent_only
    def test_commit_point_recorded(self, txn_table):
        slot = txn_table.begin(tid=1)
        txn_table.set_committing(slot, cid=42)
        assert txn_table.state(slot) == SLOT_COMMITTING
        assert txn_table.cid(slot) == 42

    @persistent_only
    def test_in_flight_lists_busy_slots(self, txn_table):
        a = txn_table.begin(tid=1)
        b = txn_table.begin(tid=2)
        txn_table.set_committing(b, cid=10)
        flights = {slot: (state, tid) for slot, state, tid, _ in txn_table.in_flight()}
        assert flights[a] == (SLOT_ACTIVE, 1)
        assert flights[b] == (SLOT_COMMITTING, 2)

    @persistent_only
    def test_new_transaction_resets_records(self, txn_table):
        slot = txn_table.begin(tid=1)
        txn_table.record(slot, OP_INVALIDATE, 1, 1)
        txn_table.mark_free(slot)
        slot2 = txn_table.begin(tid=2)
        assert slot2 == slot
        assert txn_table.records(slot2) == []


class TestPersistentTxnTableRestart:
    def test_in_flight_survives_reattach(self, pool):
        table = PersistentTxnTable.create(pool, slot_count=4)
        slot = table.begin(tid=7)
        table.record(slot, OP_INVALIDATE, 3, 12)
        again = PersistentTxnTable.attach(pool, table.offset)
        flights = list(again.in_flight())
        assert len(flights) == 1
        assert flights[0][2] == 7
        assert again.records(slot) == [(OP_INVALIDATE, 3, 12)]

    def test_free_slots_rediscovered(self, pool):
        table = PersistentTxnTable.create(pool, slot_count=4)
        slot = table.begin(tid=1)
        table.mark_free(slot)
        table.begin(tid=2)
        again = PersistentTxnTable.attach(pool, table.offset)
        # 3 free slots must be available.
        for i in range(3):
            again.begin(tid=10 + i)
        with pytest.raises(TooManyActiveTransactions):
            again.begin(tid=99)

    def test_chunk_recycling(self, pool):
        table = PersistentTxnTable.create(pool, slot_count=4)
        slot = table.begin(tid=1)
        for i in range(40):  # two chunks
            table.record(slot, OP_INVALIDATE, 1, i)
        allocs_before = pool.stats.allocations
        table.mark_free(slot)
        slot = table.begin(tid=2)
        for i in range(40):
            table.record(slot, OP_INVALIDATE, 1, i)
        # The two chunks were reused, not reallocated.
        assert pool.stats.allocations == allocs_before


@pytest.fixture(params=["volatile", "nvm"])
def env(request, pool):
    if request.param == "volatile":
        backend = VolatileBackend()
        txn_table = VolatileTxnTable(slot_count=16)
    else:
        backend = NvmBackend(pool)
        txn_table = PersistentTxnTable.create(pool, slot_count=16)
    table = Table.create(1, "t", SCHEMA, backend)
    manager = TransactionManager(
        txn_table,
        VolatileCidStore(),
        VolatileTidAllocator(),
        {1: table}.__getitem__,
    )
    return manager, table


class TestManagerBasics:
    def test_commit_makes_row_visible(self, env):
        manager, table = env
        ctx = manager.begin()
        manager.insert(ctx, table, [1, "a"])
        cid = manager.commit(ctx)
        assert cid == 1
        assert list(table.delta.mvcc.visible_mask(cid)) == [True]

    def test_uncommitted_invisible_to_others(self, env):
        manager, table = env
        writer = manager.begin()
        ref = manager.insert(writer, table, [1, "a"])
        reader = manager.begin()
        assert not reader.row_visible(table, ref)
        assert writer.row_visible(table, ref)

    def test_snapshot_isolation(self, env):
        manager, table = env
        setup = manager.begin()
        ref = manager.insert(setup, table, [1, "a"])
        manager.commit(setup)
        old_reader = manager.begin()
        deleter = manager.begin()
        manager.invalidate(deleter, table, ref)
        manager.commit(deleter)
        # The reader's snapshot predates the delete.
        assert old_reader.row_visible(table, ref)
        late_reader = manager.begin()
        assert not late_reader.row_visible(table, ref)

    def test_abort_rolls_back(self, env):
        manager, table = env
        ctx = manager.begin()
        ref = manager.insert(ctx, table, [1, "a"])
        manager.abort(ctx)
        reader = manager.begin()
        assert not reader.row_visible(table, ref)
        mvcc, idx = table.mvcc_for(ref)
        assert mvcc.get_tid(idx) == NO_TID
        assert mvcc.get_begin(idx) == INFINITY_CID

    def test_abort_releases_invalidation_lock(self, env):
        manager, table = env
        setup = manager.begin()
        ref = manager.insert(setup, table, [1, "a"])
        manager.commit(setup)
        deleter = manager.begin()
        manager.invalidate(deleter, table, ref)
        manager.abort(deleter)
        retry = manager.begin()
        manager.invalidate(retry, table, ref)  # no conflict
        manager.commit(retry)

    def test_read_only_commit_has_no_cid(self, env):
        manager, table = env
        ctx = manager.begin()
        assert manager.commit(ctx) is None
        assert manager.last_cid == 0

    def test_operations_on_finished_txn_rejected(self, env):
        manager, table = env
        ctx = manager.begin()
        manager.commit(ctx)
        with pytest.raises(TransactionAborted):
            manager.insert(ctx, table, [1, "a"])
        with pytest.raises(TransactionAborted):
            manager.commit(ctx)

    def test_update_creates_new_version(self, env):
        manager, table = env
        setup = manager.begin()
        ref = manager.insert(setup, table, [1, "old"])
        manager.commit(setup)
        updater = manager.begin()
        new_ref = manager.update(updater, table, ref, {"name": "new"})
        manager.commit(updater)
        reader = manager.begin()
        assert not reader.row_visible(table, ref)
        assert reader.row_visible(table, new_ref)
        assert table.get_row(new_ref) == [1, "new"]

    def test_update_unknown_column_rejected(self, env):
        manager, table = env
        setup = manager.begin()
        ref = manager.insert(setup, table, [1, "a"])
        manager.commit(setup)
        ctx = manager.begin()
        with pytest.raises(KeyError):
            manager.update(ctx, table, ref, {"nope": 1})

    def test_own_update_visible_before_commit(self, env):
        manager, table = env
        setup = manager.begin()
        ref = manager.insert(setup, table, [1, "old"])
        manager.commit(setup)
        ctx = manager.begin()
        new_ref = manager.update(ctx, table, ref, {"name": "mine"})
        assert not ctx.row_visible(table, ref)
        assert ctx.row_visible(table, new_ref)


class TestConflicts:
    def test_write_write_conflict(self, env):
        manager, table = env
        setup = manager.begin()
        ref = manager.insert(setup, table, [1, "a"])
        manager.commit(setup)
        first = manager.begin()
        second = manager.begin()
        manager.invalidate(first, table, ref)
        with pytest.raises(TransactionConflict):
            manager.invalidate(second, table, ref)
        assert manager.conflicts == 1

    def test_delete_already_deleted_conflicts(self, env):
        manager, table = env
        setup = manager.begin()
        ref = manager.insert(setup, table, [1, "a"])
        manager.commit(setup)
        deleter = manager.begin()
        manager.invalidate(deleter, table, ref)
        manager.commit(deleter)
        late = manager.begin()
        with pytest.raises(TransactionConflict):
            manager.invalidate(late, table, ref)

    def test_cannot_delete_invisible_row(self, env):
        manager, table = env
        writer = manager.begin()
        ref = manager.insert(writer, table, [1, "a"])
        other = manager.begin()
        with pytest.raises(TransactionConflict):
            manager.invalidate(other, table, ref)

    def test_double_delete_same_txn_conflicts(self, env):
        manager, table = env
        setup = manager.begin()
        ref = manager.insert(setup, table, [1, "a"])
        manager.commit(setup)
        ctx = manager.begin()
        manager.invalidate(ctx, table, ref)
        with pytest.raises(TransactionConflict):
            manager.invalidate(ctx, table, ref)

    def test_insert_then_delete_own_row(self, env):
        manager, table = env
        ctx = manager.begin()
        ref = manager.insert(ctx, table, [1, "a"])
        manager.invalidate(ctx, table, ref)
        cid = manager.commit(ctx)
        reader = manager.begin()
        assert not reader.row_visible(table, ref)


class TestCidAndTid:
    def test_cids_monotonic(self, env):
        manager, table = env
        for i in range(3):
            ctx = manager.begin()
            manager.insert(ctx, table, [i, "x"])
            assert manager.commit(ctx) == i + 1
        assert manager.last_cid == 3

    def test_tids_unique(self, env):
        manager, table = env
        tids = set()
        for _ in range(10):
            ctx = manager.begin()
            tids.add(ctx.tid)
            manager.commit(ctx)
        assert len(tids) == 10
        assert NO_TID not in tids
