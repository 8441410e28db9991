"""The persist-ordering rule, pinned from both sides.

DESIGN.md "Key design decisions" states one rule — a drain separates two
stores only when recovery cannot tolerate the second durable without the
first and they sit in different cache lines — and a table of what each
operation of a commit issues. Two things keep that table honest:

* the **budget**: one autocommit insert / update / delete on a warmed
  table issues exactly the flushes and drains the table states, so a
  barrier that creeps back in is a test failure, not a benchmark drift;
* the **planted missing barrier**: take away the one drain the rule says
  the insert path cannot lose and the crash sweep must notice — the
  STRICT pool keeps a flushed line's pre-image until the flushing thread
  drains, so a missing fence is as visible as a missing flush.

The table's row for the first store into a fill chunk is pinned the
same way, by a deterministic crash and a planted mutant of its own.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.fault.inject import CrashPointInjector, SimulatedPowerFailure
from repro.fault.sweep import CrashSweep, SweepSettings
from repro.nvm.pool import CACHE_LINE, PMemMode
from repro.nvm.pvector import PVector
from repro.obs import MetricsRegistry, boundary, set_registry
from repro.query.predicate import Eq
from repro.storage.mvcc import NO_TID
from repro.storage.types import DataType

from tests.conftest import make_config

ACCOUNTS = {"id": DataType.INT64, "grp": DataType.STRING, "qty": DataType.INT64}


# ----------------------------------------------------------------------
# The budget
# ----------------------------------------------------------------------


@pytest.fixture
def warmed(tmp_path):
    """An indexed three-column NVM table whose dictionaries already hold
    every ``grp``/``qty`` value used below (and ids 0..39), far from any
    chunk boundary; a fresh registry so boundary counts start at zero."""
    previous = set_registry(MetricsRegistry())
    db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
    db.create_table("accounts", ACCOUNTS)
    db.create_index("accounts", "id")
    db.insert_many(
        "accounts",
        [{"id": i, "grp": f"g{i % 4}", "qty": i % 7} for i in range(40)],
    )
    # One of each autocommit shape: the txn-table slot and its undo
    # chunk are recycled ones from here on, as in any running engine.
    db.insert("accounts", {"id": 40, "grp": "g1", "qty": 1})
    yield db
    db.close()
    set_registry(previous)


def _spent(db, op) -> tuple[int, int]:
    """(flush calls, drain calls) ``op`` costs, checked against the
    boundary stream: every call is one event, no more, no less."""
    stats = db._pool.stats

    def counters():
        return (
            stats.flush_calls,
            stats.drain_calls,
            boundary.events_total("flush"),
            boundary.events_total("drain"),
        )

    before = counters()
    op()
    flushes, drains, flush_events, drain_events = (
        b - a for a, b in zip(before, counters())
    )
    assert (flush_events, drain_events) == (flushes, drains)
    return flushes, drains


def _update(db, key, qty):
    with db.begin() as txn:
        ref = txn.query("accounts", Eq("id", key)).refs()[0]
        txn.update("accounts", ref, {"qty": qty})


def _delete(db, key):
    with db.begin() as txn:
        txn.delete("accounts", txn.query("accounts", Eq("id", key)).refs()[0])


class TestPersistBudget:
    """The counts are DESIGN.md's table, summed per operation."""

    def test_insert_of_known_values(self, warmed):
        # begin 1/1, first record 2/2, three code vectors + end + tid
        # 10/0, begin publish 2/2, COMMITTING 1/1, fix-ups 2/0,
        # last_cid 1/1, FREE 1/1.
        row = {"id": 7, "grp": "g2", "qty": 3}
        assert _spent(warmed, lambda: warmed.insert("accounts", row)) == (20, 8)

    def test_insert_with_a_new_key(self, warmed):
        # The same, plus one dictionary append (payload, then size).
        row = {"id": 1000, "grp": "g2", "qty": 3}
        assert _spent(warmed, lambda: warmed.insert("accounts", row)) == (22, 10)

    def test_update(self, warmed):
        # begin 1/1, first record 2/2, row lock 1/1, second record 2/2,
        # new version 12/2, COMMITTING 1/1, fix-ups 4/0, last_cid 1/1,
        # FREE 1/1.
        assert _spent(warmed, lambda: _update(warmed, 5, 2)) == (25, 11)

    def test_delete(self, warmed):
        # begin 1/1, first record 2/2, row lock 1/1, COMMITTING 1/1,
        # fix-ups 2/0, last_cid 1/1, FREE 1/1.
        assert _spent(warmed, lambda: _delete(warmed, 6)) == (9, 7)

    def test_a_batch_pays_the_same_barriers_as_a_row(self, warmed):
        rows = [{"id": i % 40, "grp": "g3", "qty": 5} for i in range(512)]
        assert _spent(warmed, lambda: warmed.insert_many("accounts", rows)) == (20, 8)

    def test_read_only_commit_and_reads_persist_nothing_but_the_slot(self, warmed):
        def read():
            with warmed.begin() as txn:
                txn.query("accounts", Eq("id", 3)).rows()

        assert _spent(warmed, read) == (2, 2)  # begin, FREE
        assert _spent(warmed, lambda: warmed.query("accounts").rows()) == (0, 0)


# ----------------------------------------------------------------------
# The planted missing barrier
# ----------------------------------------------------------------------


def _first_failure(sweep: CrashSweep, limit=None):
    """The first crash point at which recovery raises or the oracle
    objects (None when every point up to ``limit`` holds)."""
    _, counter = sweep.run_point(None)
    for point in range(1, min(counter.events, limit or counter.events) + 1):
        try:
            result, _ = sweep.run_point(point)
        except Exception:
            return point
        if result.problems:
            return point
    return None


def _batch_sweep(root) -> CrashSweep:
    # Survivor 0.5: the failure needs one unfenced line to land and a
    # neighbour not to. (At 0 and at 1 they all go the same way.)
    return CrashSweep(
        str(root),
        SweepSettings(workload="batch", mode="nvm", survivor_fraction=0.5, seed=7),
    )


#: Points of the ``batch`` workload swept on the unmodified engine here
#: (the whole cell is the CI crash-sweep job's); the mutant dies inside
#: them several times over.
WINDOW = 120


def test_a_missing_barrier_fails_the_sweep(tmp_path, monkeypatch):
    """``extend`` without the drain between payload and size: the one
    barrier that orders a row's code, ``end`` and ``tid`` stores before
    the ``begin`` length that makes the row exist."""
    assert _first_failure(_batch_sweep(tmp_path / "engine"), WINDOW) is None

    fenced_extend = PVector.extend

    def extend_without_the_barrier(self, values, fence=True):
        first = fenced_extend(self, values, fence=False)
        if fence:
            self._pool.drain()  # the trailing drain stays
        return first

    monkeypatch.setattr(PVector, "extend", extend_without_the_barrier)
    died_at = _first_failure(_batch_sweep(tmp_path / "mutant"), WINDOW)
    assert died_at is not None, "the simulator cannot see a missing drain"


# ----------------------------------------------------------------------
# The first store into a fill chunk
# ----------------------------------------------------------------------


class _AtTheSlotDrain(CrashPointInjector):
    """The power fails at the drain meant to make ``slot_line`` durable
    (the first one issued while that line is flushed and unfenced)."""

    def __init__(self, pool, slot_line):
        super().__init__(None)
        self.pool, self.slot_line = pool, slot_line

    def __call__(self, kind):
        if kind == "drain" and self.slot_line in self.pool._parked:
            self.crash_at = self.events + 1
        super().__call__(kind)


def _lose_only(pool, lost: range) -> None:
    """Settle every pending line before the power cut: those inside
    ``lost`` revert (dirty first, then unfenced, as ``crash`` does),
    every other one survives."""
    for pending in (pool._undo, pool._parked):
        for line, pre_image in pending.items():
            if line in lost:
                pool._raw_write(line, pre_image)
        pending.clear()
    pool._flushed_by.clear()


def _delete_crashing_at_the_tid_slot(path) -> Database:
    """Delete a row of a merged main on a STRICT pool. The row lock is
    the first store into the main's ``tid`` chunk, so it materialises
    the chunk in memory recycled from the merge (poison). The power
    fails at the drain of the chunk's directory slot, losing every
    pending line of the chunk and keeping the slot line. Returns the
    reopened engine."""
    cfg = make_config(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
    db = Database(str(path), cfg)
    db.create_table("accounts", ACCOUNTS)
    db.insert_many(
        "accounts", [{"id": i, "grp": f"g{i % 4}", "qty": i} for i in range(1000)]
    )
    db.merge("accounts")
    gc.collect()  # the old delta's blocks are free, and poisoned
    tid = db.table("accounts").main.mvcc.tid
    slot = tid._dirs[-1][0] + 8  # chunk 0's: every row lives there
    txn = db.begin()
    ref = txn.query("accounts", Eq("id", 5)).refs()[0]
    with _AtTheSlotDrain(db._pool, slot // CACHE_LINE * CACHE_LINE) as cut:
        with pytest.raises(SimulatedPowerFailure):
            txn.delete("accounts", ref)
        assert cut.fired
        chunk_off = db._pool.read_u64(slot)
        _lose_only(db._pool, range(chunk_off, chunk_off + tid.chunk_capacity * 8))
        db.crash()
    return Database(str(path), cfg)


def _materialise_without_the_drain(self, chunk):
    pool = self._pool
    nbytes = self._chunk_cap * self._itemsize
    chunk_off = pool.allocate(nbytes)
    pool.write_array(chunk_off, np.broadcast_to(self._fill, self._chunk_cap))
    pool.flush(chunk_off, nbytes)  # the drain that belongs here is gone
    slot = self._dirs[-1][0] + 8 + 8 * chunk
    pool.write_u64(slot, chunk_off)
    pool.persist(slot, 8)
    self._chunks[chunk] = chunk_off
    return chunk_off


def test_a_fill_chunk_is_filled_before_its_slot_is_durable(tmp_path):
    """fill ⟶ drain ⟶ slot: a crash at the slot's drain that keeps the
    slot and loses the chunk's lines recovers rows that read the fill —
    unlocked — not whatever the recycled block held."""
    db = _delete_crashing_at_the_tid_slot(tmp_path / "db")
    try:
        main = db.table("accounts").main
        assert (main.mvcc.tid_array() == NO_TID).all()
        assert db.verify() == []
        with db.begin() as txn:  # a neighbour of the row is not locked
            txn.delete("accounts", txn.query("accounts", Eq("id", 6)).refs()[0])
        assert db.query("accounts").count == 999
    finally:
        db.close()


def test_a_slot_published_before_its_fill_fails_that_test(tmp_path, monkeypatch):
    """The planted mutant: no drain between fill and slot. The same
    crash then recovers a slot that leads to poison."""
    monkeypatch.setattr(PVector, "_materialise", _materialise_without_the_drain)
    db = _delete_crashing_at_the_tid_slot(tmp_path / "db")
    try:
        tid = db.table("accounts").main.mvcc.tid_array()
        assert (tid != NO_TID).any()
        assert any("still locked" in problem for problem in db.verify())
    finally:
        db.close()


def test_flushed_is_not_durable_for_the_engine_either(tmp_path):
    """The same hole end to end, without a sweep: a commit whose every
    store was flushed and none fenced is gone at survivor 0 (the pool
    this one replaces kept it — a flush alone made a line durable), and
    the table is consistent without it."""
    cfg = make_config(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
    db = Database(str(tmp_path / "db"), cfg)
    db.create_table("accounts", ACCOUNTS)
    db.insert("accounts", {"id": 1, "grp": "a", "qty": 1})
    db._pool.drain = lambda: None  # every barrier of the next commit
    db.insert("accounts", {"id": 2, "grp": "b", "qty": 2})
    assert db.query("accounts").column("id") == [1, 2]
    db.crash(survivor_fraction=0.0)
    recovered = Database(str(tmp_path / "db"), cfg)
    try:
        assert recovered.verify() == []
        assert recovered.query("accounts").column("id") == [1]
    finally:
        recovered.close()
