"""Pool space comes back: free list, retirement, the post-restart sweep.

Three layers, one rule each:

* the pool — ``free`` feeds an address-ordered, coalescing free list
  that ``allocate`` serves first; ``retire`` frees when the owner dies;
  ``sweep`` re-derives the list after a restart;
* the engine — a merge, a drop, an abandoned cutover and a replaced
  descriptor give their blocks back, only after the store that unlinked
  them is durable, and never while a reader can still reach them;
* the ledger — every byte below the head is reachable, free, or pinned
  by a retiring generation (the Hypothesis machine at the bottom).
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import threading
import time
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.core.durability import NvmDriver
from repro.fault.inject import CrashPointInjector, SimulatedPowerFailure
from repro.fault.sweep import CrashSweep, SweepSettings
from repro.nvm.errors import PoolCorruptError
from repro.nvm.pool import CACHE_LINE, HEADER_SIZE, PMemMode, PMemPool
from repro.query.predicate import Eq
from repro.storage import merge
from repro.storage.types import DataType
from repro.txn.txn_table import _CHUNK_BYTES as UNDO_CHUNK_BYTES

from tests.conftest import SMALL_EXTENT, make_config

EXTENT = SMALL_EXTENT
SCHEMA = {"k": DataType.INT64, "s": DataType.STRING}
#: Sizes of the directories a ``PVector`` outgrows (16 slots, doubling).
OUTGROWN_DIRECTORIES = {8 + 8 * (16 << k) for k in range(8)}


def free_ranges(pool: PMemPool) -> list[tuple[int, int]]:
    pool.space()  # folds queued frees in
    return [tuple(r) for r in pool._free_ranges.tolist()]


def joined(ranges) -> list[tuple[int, int]]:
    """``[start, end)`` ranges sorted, empty ones dropped, neighbours
    merged — two descriptions of the same bytes compare equal."""
    out: list[list[int]] = []
    for start, end in sorted(r for r in ranges if r[0] < r[1]):
        assert not out or start >= out[-1][1], "ranges overlap"
        if out and start == out[-1][1]:
            out[-1][1] = end
        else:
            out.append([start, end])
    return [tuple(r) for r in out]


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


class TestFreeList:
    def test_freed_block_is_reused_before_the_head_moves(self, pool):
        a = pool.allocate(4096)
        pool.allocate(4096)
        head = pool.alloc_head
        pool.free(a, 4096)
        assert pool.allocate(4096) == a
        assert pool.alloc_head == head

    def test_lowest_fitting_range_wins_and_is_split(self, pool):
        blocks = [pool.allocate(1024) for _ in range(4)]
        pool.free(blocks[2], 1024)
        pool.free(blocks[0], 1024)
        assert pool.allocate(256) == blocks[0]
        assert free_ranges(pool) == [
            (blocks[0] + 256, blocks[0] + 1024),
            (blocks[2], blocks[2] + 1024),
        ]

    def test_neighbours_coalesce(self, pool):
        blocks = [pool.allocate(1024) for _ in range(4)]
        for block in (blocks[1], blocks[2], blocks[0]):
            pool.free(block, 1024)
        assert free_ranges(pool) == [(blocks[0], blocks[0] + 3072)]
        assert pool.allocate(3072) == blocks[0]

    def test_never_coalesces_across_an_extent_boundary(self, pool):
        tail = pool.allocate(EXTENT - HEADER_SIZE)  # fills extent 0
        first = pool.allocate(4096)  # opens extent 1
        assert tail + EXTENT - HEADER_SIZE == first == EXTENT
        pool.free(tail, EXTENT - HEADER_SIZE)
        pool.free(first, 4096)
        assert free_ranges(pool) == [(tail, EXTENT), (EXTENT, EXTENT + 4096)]
        off = pool.allocate(EXTENT - HEADER_SIZE)
        assert off // EXTENT == (off + EXTENT - HEADER_SIZE - 1) // EXTENT

    def test_alignment_by_splitting_not_rounding(self, pool):
        blob = pool.allocate(13, align=8)
        line = pool.allocate(64)  # leaves [blob + 13, line) as a gap
        space = pool.space()
        assert space["allocated_bytes"] == 13 + 64
        assert space["free_bytes"] == line - (blob + 13)
        pool.free(blob, 13)
        assert free_ranges(pool) == [(blob, line)]
        assert pool.allocate(8, align=8) == blob
        got = pool.allocate(CACHE_LINE)  # nothing below ``line`` is aligned
        assert got % CACHE_LINE == 0 and got > line

    def test_skipped_extent_tail_is_free_space(self, pool):
        pool.allocate(EXTENT - HEADER_SIZE - 4096)
        big = pool.allocate(64 * 1024)  # does not fit the 4 KiB tail
        assert big == EXTENT
        assert free_ranges(pool) == [(EXTENT - 4096, EXTENT)]
        assert pool.allocate(4096) == EXTENT - 4096

    def test_strict_free_poisons(self, strict_pool):
        off = strict_pool.allocate(256)
        strict_pool.write(off, b"\x01" * 256)
        strict_pool.persist(off, 256)
        written = strict_pool.stats.bytes_written
        strict_pool.free(off, 256)
        assert strict_pool.read(off, 256) == b"\xdb" * 256
        assert strict_pool.stats.bytes_written == written  # untracked
        assert strict_pool.allocate(256) == off  # and recycled as it is

    def test_free_takes_no_lock(self, pool):
        """A finalizer may run on a thread that is inside ``allocate``."""
        off = pool.allocate(128)
        with pool._alloc_lock:
            pool.free(off, 128)
        assert pool.allocate(128) == off

    def test_double_free_is_caught(self, pool):
        off = pool.allocate(128)
        pool.free(off, 128)
        pool.free(off, 128)
        with pytest.raises(PoolCorruptError, match="freed twice"):
            pool.allocate(64)

    def test_space_numbers(self, pool):
        a = pool.allocate(1000)
        pool.allocate(500)
        pool.free(a, 1000)
        space = pool.space()
        assert space["high_water_bytes"] == pool.alloc_head - HEADER_SIZE
        assert space["allocated_bytes"] == 500
        assert space["free_bytes"] == space["high_water_bytes"] - 500
        assert space["reclaimed_bytes"] == 1000

    def test_free_after_close_is_ignored(self, strict_pool):
        off = strict_pool.allocate(128)
        strict_pool.close()
        strict_pool.free(off, 128)  # a late finalizer: must not raise


class _Owner:
    pass


class TestRetire:
    def test_blocks_come_back_when_the_owner_dies(self, pool):
        off = pool.allocate(512)
        owner = _Owner()
        pool.retire(owner, [(off, 512)])
        assert pool.retiring == [(off, 512)]
        assert pool.allocate(512) != off  # still pinned
        del owner
        gc.collect()
        assert pool.retiring == []
        assert pool.allocate(512) == off


class TestSweep:
    def test_fresh_pool_has_nothing_to_sweep(self, pool):
        assert not pool.unswept
        assert pool.sweep([]) == 0

    def test_complement_of_reachable_below_the_attach_head(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT, mode=PMemMode.STRICT)
        live = pool.allocate(1024)
        dropped = pool.allocate(512)
        leaked = pool.allocate(2048)
        blob = pool.allocate(5, align=8)
        last = pool.allocate(64)  # [blob + 5, last) is an alignment gap
        pool.close()

        pool = PMemPool.open(pool_dir, mode=PMemMode.STRICT)
        head = pool.alloc_head
        assert pool.unswept
        assert pool.space()["allocated_bytes"] == head - HEADER_SIZE  # unknown yet
        mine = pool.allocate(4096)  # this session's: above the bound
        assert mine >= head
        # Freed below the bound: it waits for the sweep (handed out
        # again now, the sweep could take it for garbage).
        pool.free(dropped, 512)
        assert free_ranges(pool) == []
        assert pool.allocate(512) > head
        # ``dropped`` may still be in an enumeration made a moment ago.
        found = pool.sweep([(live, 1024), (dropped, 512), (blob, 5), (last, 64)])
        assert found == 2048 + (last - (blob + 5))
        assert free_ranges(pool) == [(dropped, blob), (blob + 5, last)]
        assert pool.read(leaked, 8) == b"\xdb" * 8
        assert not pool.unswept
        space = pool.space()
        assert space["allocated_bytes"] == 1024 + 5 + 64 + 4096 + 512
        assert space["reclaimed_bytes"] == 512 + found
        assert pool.allocate(2048 + 512) == dropped
        pool.close()

    def test_overlapping_reachable_blocks_free_nothing(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT)
        a = pool.allocate(1024)
        pool.close()
        pool = PMemPool.open(pool_dir)
        with pytest.raises(PoolCorruptError, match="overlap"):
            pool.sweep([(a, 1024), (a + 512, 1024)])
        assert pool.unswept and free_ranges(pool) == []
        pool.close()

    def test_retiring_blocks_are_not_swept(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT)
        a = pool.allocate(1024)
        pool.close()
        pool = PMemPool.open(pool_dir)
        owner = _Owner()
        pool.retire(owner, [(a, 1024)])  # unlinked, still read by ``owner``
        pool.sweep([])
        assert free_ranges(pool) == []
        del owner
        gc.collect()
        assert free_ranges(pool) == [(a, a + 1024)]
        pool.close()

    def test_a_finalizer_racing_the_sweep_frees_its_block_once(self, pool_dir):
        pool = PMemPool.create(pool_dir, extent_size=EXTENT)
        a = pool.allocate(1024)
        pool.close()
        pool = PMemPool.open(pool_dir)
        owner = _Owner()
        pool.retire(owner, [(a, 1024)])
        queue = pool.free

        def free_and_be_swept(offset, nbytes):
            queue(offset, nbytes)
            pool.sweep([])  # between the finalizer's queueing and forgetting

        pool.free = free_and_be_swept
        del owner
        gc.collect()
        assert not pool.unswept and pool.retiring == []
        assert free_ranges(pool) == [(a, a + 1024)]  # not lost, not twice
        pool.close()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


def strict_db(path, **overrides) -> Database:
    return Database(
        str(path),
        make_config(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT, **overrides),
    )


def rows_for(keys, tag="v") -> list[dict]:
    return [{"k": k, "s": f"{tag}{k % 7}"} for k in keys]


def space(db: Database) -> dict:
    return db.stats()["nvm"]


def assert_ledger_closes(db: Database) -> None:
    report = db.memory_report()
    assert report["unreachable"] == 0, report


class TestMergeGivesSpaceBack:
    def test_high_water_plateaus(self, tmp_path):
        """Ten merges of a constant-size table: after the second the
        pool stops growing — each new generation fits what the one
        before the last left."""
        db = strict_db(tmp_path / "db")
        db.create_table("t", SCHEMA)
        db.create_index("t", "k")
        db.insert_many("t", rows_for(range(3000)))
        marks = []
        for round_ in range(10):
            with db.begin() as txn:
                for ref in txn.query("t", Eq("k", round_)).refs():
                    txn.update("t", ref, {"s": f"r{round_}"})
            db.merge("t")
            marks.append(space(db)["high_water_bytes"])
            assert_ledger_closes(db)
        assert marks[1:] == [marks[1]] * 9
        assert db.query("t").count == 3000
        assert db.verify() == []
        db.close()

    def test_held_scan_pins_its_generation_through_two_merges(self, tmp_path):
        db = strict_db(tmp_path / "db")
        db.create_table("t", SCHEMA)
        db.insert_many("t", rows_for(range(500)))
        db.merge("t")
        db.insert_many("t", rows_for(range(500, 600)))
        held = db.query("t")
        before = held.rows()
        pinned = {*held.main_part.blocks(), *held.delta_part.blocks()}
        for lo in (600, 700):
            db.insert_many("t", rows_for(range(lo, lo + 100)))
            db.merge("t")
        # Unlinked two generations ago, still readable, still not free.
        assert pinned <= set(db._pool.retiring)
        assert held.rows() == before
        assert db.memory_report()["retiring"] >= sum(n for _, n in pinned)
        assert_ledger_closes(db)

        del held
        gc.collect()
        assert not pinned & set(db._pool.retiring)
        free = free_ranges(db._pool)
        assert all(
            any(lo <= off and off + n <= hi for lo, hi in free) for off, n in pinned
        )
        head = db._pool.alloc_head
        db.insert_many("t", rows_for(range(800, 900)))
        db.merge("t")  # built in what the scan was pinning
        assert db._pool.alloc_head == head
        assert db.query("t").count == 900
        db.close()

    def test_drop_table_frees_its_content(self, tmp_path):
        db = strict_db(tmp_path / "db")
        db.create_table("keep", SCHEMA)
        baseline = space(db)["allocated_bytes"]
        db.create_table("t", SCHEMA)
        entry_and_blobs = space(db)["allocated_bytes"]
        db.create_index("t", "k")
        db.insert_many("t", rows_for(range(2000)))
        db.merge("t")
        db.drop_table("t")
        gc.collect()
        # The tombstoned entry, its name and schema stay (and the undo
        # chunk the insert's transaction left the txn table); the rest
        # is back.
        left = space(db)["allocated_bytes"] - baseline
        assert 0 < left < 1024 < entry_and_blobs - baseline
        assert_ledger_closes(db)
        db = db.restart()
        db.merge("keep")
        assert_ledger_closes(db)
        db.close()

    def test_create_index_frees_the_descriptors_it_replaces(self, tmp_path):
        db = strict_db(tmp_path / "db")
        db.create_table("t", SCHEMA)
        db.insert_many("t", rows_for(range(100)))
        reclaimed = space(db)["reclaimed_bytes"]
        db.create_index("t", "k")
        ncols = len(SCHEMA)
        assert space(db)["reclaimed_bytes"] - reclaimed == (
            32 + (40 + 24 * ncols) + (32 + 24 * ncols)
        )
        assert_ledger_closes(db)
        db.close()

    def test_abandoned_cutover_frees_the_generation_nobody_saw(self, tmp_path):
        db = strict_db(tmp_path / "db", merge_cutover_timeout_s=0.05)
        db.create_table("t", SCHEMA)
        db.create_index("t", "k")
        db.insert_many("t", rows_for(range(1000)))
        allocated = space(db)["allocated_bytes"]
        blocker = db.begin()
        blocker.insert("t", {"k": -1, "s": "held"})
        with pytest.raises(RuntimeError, match="cutover timed out"):
            db.merge("t")
        blocker.abort()
        gc.collect()
        assert space(db)["allocated_bytes"] == pytest.approx(allocated, abs=1024)
        assert_ledger_closes(db)
        db.merge("t")
        assert db.query("t").count == 1000
        db.close()

    def test_outgrown_directories_stay_the_vectors_until_it_goes(self, strict_pool):
        """Freed on the spot, an outgrown directory could be freed twice:
        once there, once by a retirement that listed it just before."""
        import numpy as np

        from repro.nvm.pvector import PVector

        vec = PVector.create(strict_pool, np.uint64, chunk_capacity=1)
        listed_before = set(vec.blocks())
        vec.extend(np.arange(40, dtype=np.uint64))  # 16 -> 32 -> 64 slots
        assert listed_before <= set(vec.blocks())
        held = sum(n for _, n in vec.blocks())
        assert strict_pool.space()["allocated_bytes"] == held
        again = PVector.attach(strict_pool, vec.offset)
        assert again.to_numpy().tolist() == list(range(40))

    @pytest.mark.parametrize("taken", [1, 2])
    def test_a_listing_that_races_a_growth_names_each_block_once(
        self, strict_pool, taken
    ):
        """A retirement or the sweep lists a vector's ``blocks()`` while
        a late writer grows it: a block named twice would be freed
        twice, the outgrown one left out would be freed while probed."""
        import numpy as np

        from repro.nvm.pvector import PVector

        owner = PVector.create(strict_pool, np.uint64, chunk_capacity=1)
        before = list(owner.blocks())
        listing = owner.blocks()
        seen = [next(listing) for _ in range(taken)]  # header(, directory)
        owner.extend(np.arange(40, dtype=np.uint64))  # 16 -> 64 slots
        seen += listing
        assert len(set(seen)) == len(seen)
        assert set(before) <= set(seen) <= set(owner.blocks())


class TestSweepAfterACrash:
    def test_crashed_fold_is_collected_by_the_next_merge(self, tmp_path, monkeypatch):
        monkeypatch.setattr(merge, "MERGE_CHUNK_ROWS", 64)
        db = strict_db(tmp_path / "db")
        db.create_table("t", SCHEMA)
        db.insert_many("t", rows_for(range(1000)))
        expected = db.query("t").rows()

        class AtCutover(CrashPointInjector):
            def __call__(self, kind):  # die once the fold has allocated
                if kind == "merge_cutover":
                    self.crash_at = self.events + 1
                super().__call__(kind)

        with AtCutover():
            with pytest.raises(SimulatedPowerFailure):
                db.merge("t")
            db.crash()

        db = strict_db(tmp_path / "db")
        report = db.memory_report()
        assert report["unreachable"] > 0  # the generation the crash orphaned
        assert db._pool.unswept  # nothing looked for it on the restart path
        db.merge("t")
        assert not db._pool.unswept
        assert space(db)["reclaimed_bytes"] >= report["unreachable"]
        assert_ledger_closes(db)
        assert db.query("t").rows() == expected
        assert db.verify() == []
        db.close()

    def test_allocated_bytes_is_right_across_a_reopen(self, tmp_path):
        db = strict_db(tmp_path / "db")
        db.create_table("t", SCHEMA)
        db.insert_many("t", rows_for(range(1000)))
        db.merge("t")
        gc.collect()
        before = space(db)
        tables = db.memory_report()["tables"]
        catalog = Counter(n for _, n in db._driver.metadata_blocks())
        db = db.restart()
        after = space(db)
        # The free list is gone: until the sweep, everything below the
        # head counts as handed out. Never negative, never a reset.
        assert after["high_water_bytes"] == before["high_water_bytes"]
        assert after["allocated_bytes"] == after["high_water_bytes"]
        db.merge("t")
        gc.collect()
        # The table holds the same bytes. Of the catalog, the reopen
        # forgot only what a volatile list knew (recycled undo chunks,
        # outgrown directories), and the sweep took that back.
        assert db.memory_report()["tables"] == tables
        forgotten = catalog - Counter(n for _, n in db._driver.metadata_blocks())
        assert set(forgotten) <= {UNDO_CHUNK_BYTES, *OUTGROWN_DIRECTORIES}
        assert space(db)["allocated_bytes"] == before["allocated_bytes"] - sum(
            n * count for n, count in forgotten.items()
        )
        assert_ledger_closes(db)
        db.close()


# ----------------------------------------------------------------------
# The order: nothing is freed before the store that unlinks it is durable
# ----------------------------------------------------------------------


class _InsideThePublish(CrashPointInjector):
    """``crash_at=k``: the power fails at the k-th persistence event
    after the first ``merge_cutover`` — inside ``on_merge``, between
    the in-memory swap and the durable one."""

    def __init__(self, crash_at=None):
        super().__init__(None)
        self._delay = crash_at

    def __call__(self, kind):
        if kind == "merge_cutover" and self._delay is not None:
            self.crash_at, self._delay = self.events + 1 + self._delay, None
        super().__call__(kind)


#: ``on_merge`` writes three descriptors and swaps one pointer: at most
#: four allocations and four persists, two events each.
PUBLISH_EVENTS = 16


def _first_failure_inside_a_publish(root):
    """Sweep the ``online`` CI cell's workload (writers racing an online
    merge) at every event of its first publish; the first point that
    fails to recover, or recovers wrong, or None."""
    sweep = CrashSweep(
        str(root), SweepSettings(workload="online", mode="nvm", seed=5)
    )
    for point in range(1, PUBLISH_EVENTS + 1):
        try:
            result, _ = sweep.run_point(point)
        except Exception:
            return point
        if result.problems:
            return point
    return None


def test_freeing_before_the_publish_fails_the_sweep(tmp_path, monkeypatch):
    """The planted early free: give the old generation back *before*
    ``on_merge`` has made the new content pointer durable. A power
    failure in between recovers a catalog that points into freed —
    poisoned, soon recycled — memory, and the sweep must say so."""
    monkeypatch.setattr("repro.fault.sweep.CrashPointInjector", _InsideThePublish)
    assert _first_failure_inside_a_publish(tmp_path / "engine") is None

    publish = NvmDriver.on_merge
    cutover = Database._cutover_locked

    def free_then_publish(self, table, plan=None):
        blocks = [b for part in self._about_to_unlink for b in part.blocks()]
        for block in blocks:
            self._pool.free(*block)
        publish(self, table, plan)

    def cutover_remembering_the_old(self, table, plan, new_main, group_keys):
        self._driver._about_to_unlink = (
            *table.content,
            *self._indexes[table.table_id].values(),
        )
        cutover(self, table, plan, new_main, group_keys)
        return ()  # already freed: nothing left to retire

    monkeypatch.setattr(NvmDriver, "on_merge", free_then_publish)
    monkeypatch.setattr(Database, "_cutover_locked", cutover_remembering_the_old)
    died_at = _first_failure_inside_a_publish(tmp_path / "mutant")
    assert died_at is not None, "the sweep cannot see an early free"


# ----------------------------------------------------------------------
# The ledger closes
# ----------------------------------------------------------------------


class LedgerMachine(RuleBasedStateMachine):
    """Every ``allocate`` and ``free`` is recorded from outside; after
    every step the blocks handed out and not freed are exactly those the
    catalog reaches plus those a retiring generation pins, and the
    pool's free list is exactly the rest of the space below the head.
    That equality is what lets the post-restart sweep trust
    ``blocks()``: an owner that forgot to name a block would lose it."""

    TABLES = ("a", "b", "c")

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.live: dict[int, int] = {}  # offset -> nbytes, handed out
        self.model: dict[str, dict[int, str]] = {}
        self.indexed: set[str] = set()
        self.held: list[tuple] = []  # (ScanResult, rows when taken)
        self.next_key = 0
        self.db = None

    # -- plumbing ----------------------------------------------------------

    def _open(self):
        self.db = Database(self.dir + "/db", self.config)
        pool, live = self.db._pool, self.live
        allocate, free = pool.allocate, pool.free

        def recording_allocate(nbytes, align=CACHE_LINE):
            offset = allocate(nbytes, align)
            assert offset % align == 0 and offset not in live
            live[offset] = nbytes
            return offset

        def recording_free(offset, nbytes):
            assert live.pop(offset) == nbytes  # whole blocks, once
            free(offset, nbytes)

        pool.allocate, pool.free = recording_allocate, recording_free

    @initialize()
    def start(self):
        self.config = make_config(
            DurabilityMode.NVM, pmem_mode=PMemMode.STRICT, extent_size=1024 * 1024
        )
        # The catalog's own blocks predate the recorder: take them from
        # the enumeration once, on a pool that has freed nothing yet.
        self._open()
        self.live.update(self.db._driver.metadata_blocks())

    def _fresh(self, count):
        keys = range(self.next_key, self.next_key + count)
        self.next_key += count
        return {k: f"s{k % 5}" for k in keys}

    tables = st.sampled_from(TABLES)

    # -- rules -------------------------------------------------------------

    @rule(name=tables)
    def create_table(self, name):
        if name not in self.model:
            self.db.create_table(name, SCHEMA)
            self.model[name] = {}

    @rule(name=tables, count=st.integers(1, 40))
    def insert_many(self, name, count):
        if name in self.model:
            rows = self._fresh(count)
            self.db.insert_many(name, [{"k": k, "s": s} for k, s in rows.items()])
            self.model[name].update(rows)

    @rule(name=tables)
    def insert(self, name):
        if name in self.model:
            ((k, s),) = self._fresh(1).items()
            self.db.insert(name, {"k": k, "s": "a long one " * 20 + s})
            self.model[name][k] = "a long one " * 20 + s

    @rule(name=tables, data=st.data())
    def update_delete_abort(self, name, data):
        rows = self.model.get(name)
        if not rows:
            return
        key = data.draw(st.sampled_from(sorted(rows)))
        action = data.draw(st.sampled_from(("update", "delete", "abort")))
        txn = self.db.begin()
        ref = txn.query(name, Eq("k", key)).refs()[0]
        if action == "delete":
            txn.delete(name, ref)
            txn.commit()
            del rows[key]
        else:
            txn.update(name, ref, {"s": f"u{key}"})
            txn.insert(name, {"k": -1 - key, "s": f"gone{key}"})
            if action == "update":
                txn.commit()
                rows[key] = f"u{key}"
                rows[-1 - key] = f"gone{key}"
            else:
                txn.abort()

    @rule(name=tables, online=st.booleans())
    def merge(self, name, online):
        if name in self.model:
            self.db.merge(name, online=online)

    @rule(name=tables)
    def create_index(self, name):
        if name in self.model and name not in self.indexed:
            self.db.create_index(name, "k")
            self.indexed.add(name)

    @rule(name=tables)
    def drop_table(self, name):
        if name in self.model:
            self.db.drop_table(name)
            del self.model[name]
            self.indexed.discard(name)

    @rule(name=tables)
    def hold_scan(self, name):
        if name in self.model and len(self.held) < 3:
            result = self.db.query(name)
            self.held.append((result, result.rows()))

    @precondition(lambda self: self.held)
    @rule()
    def release_scan(self):
        self.held.pop(0)

    @rule()
    def reopen(self):
        # A reader cannot outlive its engine: a scan held across the
        # close would pin blocks the next session's sweep takes back.
        self.held.clear()
        self.db.close()
        self.db = None
        gc.collect()
        self._open()
        with self.db._maint_lock:
            self.db._driver.sweep_unreachable()
        # All a clean shutdown forgets is volatile lists: the
        # transaction table's recycled undo chunks, and the directories
        # a vector outgrew. Those are the sweep's to find (the invariant
        # checks that it freed them).
        lost = set(self.live.items()) - set(self._accounted())
        assert all(
            nbytes == UNDO_CHUNK_BYTES or nbytes in OUTGROWN_DIRECTORIES
            for _, nbytes in lost
        )
        for offset, _ in lost:
            del self.live[offset]

    # -- invariants --------------------------------------------------------

    def _accounted(self) -> list[tuple[int, int]]:
        db = self.db
        reachable = db._driver.metadata_blocks()
        for table in db._tables_by_id.values():
            reachable += db._table_blocks(table)
        return sorted(reachable + db._pool.retiring)

    @invariant()
    def ledger_closes(self):
        if self.db is None:
            return
        db, pool = self.db, self.db._pool
        accounted = self._accounted()
        assert accounted == sorted(self.live.items())
        taken = joined((off, off + n) for off, n in accounted)
        free = joined(free_ranges(pool))
        assert joined(taken + free) == [(HEADER_SIZE, pool.alloc_head)]
        report = db.memory_report()
        assert report["unreachable"] == 0
        assert report["retiring"] == sum(n for _, n in pool.retiring)
        assert report["allocated_bytes"] == sum(self.live.values())

    @invariant()
    def contents_and_held_scans(self):
        if self.db is None:
            return
        for name, rows in self.model.items():
            found = {r["k"]: r["s"] for r in self.db.query(name).rows()}
            assert found == rows
        for result, rows in self.held:
            assert result.rows() == rows

    def teardown(self):
        self.held.clear()
        if self.db is not None:
            self.db.close()
        shutil.rmtree(self.dir, ignore_errors=True)


LedgerMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestLedger = LedgerMachine.TestCase


# ----------------------------------------------------------------------
# Readers, writers and merges together, with poison on
# ----------------------------------------------------------------------


def test_scans_and_inserts_race_merges_that_recycle(tmp_path, monkeypatch):
    """Every merge frees a generation and the next one is built in it;
    a scan that raced the cutover must keep reading the one it pinned —
    never poison, never the newer rows written over it."""
    monkeypatch.setattr(merge, "MERGE_CHUNK_ROWS", 64)
    db = strict_db(tmp_path / "db")
    db.create_table("t", SCHEMA)
    db.create_index("t", "k")
    db.insert_many("t", rows_for(range(400)))
    stop = threading.Event()
    problems: list = []

    def reader():
        try:
            while not stop.is_set():
                rows = db.query("t").rows()
                keys = [r["k"] for r in rows]
                if len(set(keys)) != len(keys) or any(
                    r["s"] != f"v{r['k'] % 7}" for r in rows
                ):
                    problems.append("torn scan")
                if db.query("t", Eq("k", 7)).rows() != [{"k": 7, "s": "v0"}]:
                    problems.append("bad probe")
                time.sleep(0.0005)  # hand the interpreter over willingly
        except BaseException as exc:  # noqa: BLE001 - reported below
            problems.append(exc)

    written = [400]

    def writer():
        try:
            while not stop.is_set():
                k = written[0]
                db.insert("t", {"k": k, "s": f"v{k % 7}"})
                written[0] = k + 1
                time.sleep(0.0005)
        except BaseException as exc:  # noqa: BLE001 - reported below
            problems.append(exc)

    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(6):
            try:
                db.merge("t")
            except RuntimeError:
                pass  # cutover starved this round
            time.sleep(0.005)  # let the others at the gate
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert space(db)["reclaimed_bytes"] > 0
    db.merge("t")
    assert db.query("t").count == written[0] > 400
    assert db.verify() == []
    gc.collect()
    assert_ledger_closes(db)
    db.close()
