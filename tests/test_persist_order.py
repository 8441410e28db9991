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
"""

from __future__ import annotations

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.fault.sweep import CrashSweep, SweepSettings
from repro.nvm.pool import PMemMode
from repro.nvm.pvector import PVector
from repro.obs import MetricsRegistry, boundary, set_registry
from repro.query.predicate import Eq
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
