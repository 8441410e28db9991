"""Oracles for the incremental online merge and its maintenance daemon.

The online merge (``Database.merge(..., online=True)``) folds the frozen
delta into a new main generation in bounded chunks while readers and
writers keep running; only the freeze and the cutover are short critical
sections. The tests here check the three promises that design makes:

* scans taken *during* the fold — from the merge thread at every chunk
  boundary and from a concurrent reader thread — are element-equal to
  the quiesced (pre-merge committed) state;
* a crash at any ``merge_chunk`` / ``merge_cutover`` boundary is
  logically invisible after recovery, in NVM and LOG mode alike, and the
  LOG merge record replays deterministically without a checkpoint;
* the :class:`MaintenanceDaemon` merges a table once its delta holds
  ``auto_merge_rows`` rows, without a poll and without the write path
  ever blocking on a merge.
"""

import shutil
import threading
import time

import pytest

from tests.conftest import make_config
from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.fault.inject import CrashPointInjector, SimulatedPowerFailure
from repro.nvm.pool import PMemMode
from repro.obs import boundary
from repro.storage import merge
from repro.query.predicate import Eq
from repro.storage.types import DataType
from repro.txn.errors import TransactionConflict
from repro.wal.records import MergeRecord, decode_record, encode_record

SCHEMA = {"key": DataType.INT64, "note": DataType.STRING}

#: The races below run in DRAM and on a STRICT pool, where every merge
#: frees a generation and ``free`` poisons it: a reader that outlived
#: its pin, or a block recycled too early, reads 0xDB instead of rows.
RACED = pytest.mark.parametrize(
    "raced",
    [
        dict(mode=DurabilityMode.NONE),
        dict(mode=DurabilityMode.NVM, pmem_mode=PMemMode.STRICT),
    ],
    ids=["dram", "nvm-poison"],
)


def _build_mixed(db: Database, rows: int = 60) -> dict:
    """Main-less table with inserts, updates and deletes committed, so a
    merge has survivors, invalidations and re-inserted versions to fold.
    Returns the committed key -> note mapping."""
    db.create_table("kv", SCHEMA)
    db.insert_many("kv", [{"key": k, "note": f"n{k}"} for k in range(rows)])
    with db.begin() as txn:
        ref = txn.query("kv", Eq("key", 3)).refs()[0]
        txn.update("kv", ref, {"note": "updated"})
    with db.begin() as txn:
        ref = txn.query("kv", Eq("key", rows - 1)).refs()[0]
        txn.delete("kv", ref)
    return {row["key"]: row["note"] for row in db.query("kv").rows()}


def _snapshot(db: Database) -> dict:
    return {row["key"]: row["note"] for row in db.query("kv").rows()}


class TestMidMergeConsistency:
    @RACED
    def test_scans_at_every_chunk_boundary_match_quiesced_state(
        self, tmp_path, raced, monkeypatch
    ):
        """The merge thread itself scans at each ``merge_chunk`` event;
        every scan must be element-equal to the quiesced result."""
        monkeypatch.setattr(merge, "MERGE_CHUNK_ROWS", 8)
        db = Database(str(tmp_path / "db"), make_config(**raced))
        expected = _build_mixed(db, rows=60)
        scans: list[dict] = []

        def hook(kind: str) -> None:
            if kind == "merge_chunk":
                scans.append(_snapshot(db))

        boundary.set_hook(hook)
        try:
            db.merge("kv")
        finally:
            boundary.set_hook(None)
        assert len(scans) >= 2  # 60 rows / 8 per chunk: a real fold
        for i, seen in enumerate(scans):
            assert seen == expected, f"scan at chunk boundary {i} diverged"
        assert _snapshot(db) == expected
        assert db.table("kv").generation == 1
        db.close()

    @RACED
    def test_concurrent_reader_thread_sees_stable_state(
        self, tmp_path, raced, monkeypatch
    ):
        """A reader hammering scans from its own thread across the whole
        merge (fold *and* cutover) must never observe a torn state."""
        monkeypatch.setattr(merge, "MERGE_CHUNK_ROWS", 4)
        db = Database(str(tmp_path / "db"), make_config(**raced))
        expected = _build_mixed(db, rows=80)
        mismatches: list[dict] = []
        scan_count = [0]
        merging = threading.Event()
        done = threading.Event()

        def hook(kind: str) -> None:
            if kind == "merge_chunk":
                merging.set()
                time.sleep(0.001)  # widen the window the reader races

        def reader() -> None:
            while not done.is_set():
                seen = _snapshot(db)
                scan_count[0] += 1
                if seen != expected:
                    mismatches.append(seen)

        thread = threading.Thread(target=reader, daemon=True)
        boundary.set_hook(hook)
        try:
            thread.start()
            db.merge("kv")
            assert merging.is_set()
        finally:
            boundary.set_hook(None)
            done.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert scan_count[0] > 0
        assert mismatches == []
        assert _snapshot(db) == expected
        db.close()


class TestConcurrentWritersDuringMerge:
    @RACED
    def test_writers_race_explicit_online_merges(
        self, tmp_path, raced, monkeypatch
    ):
        """Writer threads insert through repeated online merges; nothing
        committed may be lost and every insert must land exactly once."""
        monkeypatch.setattr(merge, "MERGE_CHUNK_ROWS", 4)
        db = Database(str(tmp_path / "db"), make_config(**raced))
        db.create_table("kv", SCHEMA)
        db.insert_many("kv", [{"key": k, "note": f"n{k}"} for k in range(40)])
        per_writer = 40
        errors: list[BaseException] = []

        def writer(base: int) -> None:
            try:
                for i in range(per_writer):
                    key = base + i
                    for _ in range(16):
                        try:
                            db.insert("kv", {"key": key, "note": f"w{key}"})
                            break
                        except TransactionConflict:
                            continue  # cutover moved the rows: retry
                    else:
                        raise RuntimeError(f"insert of {key} never landed")
                    # pace the writer so its lifetime spans several
                    # whole merges — the race is the point of the test
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 — collected
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(1000 * (w + 1),), daemon=True)
            for w in range(3)
        ]
        for thread in threads:
            thread.start()
        merges = 0
        while any(t.is_alive() for t in threads):
            try:
                db.merge("kv")
                merges += 1
            except RuntimeError:
                pass  # cutover starved this round; writers keep going
        for thread in threads:
            thread.join(timeout=10.0)
        assert errors == []
        assert merges >= 1
        db.merge("kv")
        found = _snapshot(db)
        expected = {k: f"n{k}" for k in range(40)}
        for w in range(3):
            base = 1000 * (w + 1)
            expected.update(
                {base + i: f"w{base + i}" for i in range(per_writer)}
            )
        assert found == expected
        db.close()


# ----------------------------------------------------------------------
# Crash-point sweep over the chunked merge
# ----------------------------------------------------------------------


class TestGateHeldOrReleased:
    """``online`` selects only whether the gate is released between
    freeze and cutover; everything else is one merge body."""

    @pytest.mark.parametrize("online", [False, True], ids=["blocking", "online"])
    def test_writer_started_after_freeze(self, tmp_path, monkeypatch, online):
        from repro.core import database as database_module

        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
        committed = _build_mixed(db)
        done = threading.Event()

        def write():
            db.insert("kv", {"key": 999, "note": "fg"})
            done.set()

        writer = threading.Thread(target=write)
        seen = {}
        real_fold = database_module.fold_generation
        real_cutover = Database._cutover_locked

        def fold(*args, **kwargs):
            writer.start()
            seen["finished_during_fold"] = done.wait(0.2 if online else 0.05)
            return real_fold(*args, **kwargs)

        def cutover(self, *args):
            seen["finished_before_cutover"] = done.is_set()
            return real_cutover(self, *args)

        monkeypatch.setattr(database_module, "fold_generation", fold)
        monkeypatch.setattr(Database, "_cutover_locked", cutover)
        db.merge("kv", online=online)
        writer.join(timeout=10.0)
        # Blocking: the writer sits at the gate until the cutover is done.
        assert seen == {
            "finished_during_fold": online,
            "finished_before_cutover": online,
        }
        assert done.is_set()
        assert _snapshot(db) == {**committed, 999: "fg"}
        assert db.verify() == []
        db.close()

    @pytest.mark.parametrize("online", [False, True], ids=["blocking", "online"])
    def test_held_operations_time_the_merge_out(self, tmp_path, online):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.NONE, merge_cutover_timeout_s=0.05),
        )
        committed = _build_mixed(db)
        holder = db.begin()
        holder.insert("kv", {"key": 500, "note": "held"})
        with pytest.raises(RuntimeError, match="held operations on the table"):
            db.merge("kv", online=online)
        assert db.table("kv").generation == 0  # old generation stays live
        # The abandoned merge released the gate: the holder can go on.
        assert db.table("kv").ops_gate.acquire_exclusive(0)
        db.table("kv").ops_gate.release_exclusive()
        holder.commit()
        db.merge("kv", online=online)
        assert _snapshot(db) == {**committed, 500: "held"}
        db.close()


@pytest.mark.parametrize("chunk_rows, chunks", [(16, 8), (32, 4), (64, 2)])
def test_the_fold_chunks_at_the_module_constant(
    tmp_path, monkeypatch, chunk_rows, chunks
):
    """One ``merge_chunk`` boundary per column per ``MERGE_CHUNK_ROWS``
    rows folded."""
    monkeypatch.setattr(merge, "MERGE_CHUNK_ROWS", chunk_rows)
    db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
    db.create_table("kv", SCHEMA)
    db.insert_many("kv", [{"key": k, "note": f"n{k}"} for k in range(64)])
    seen: list[str] = []
    boundary.set_hook(seen.append)
    try:
        db.merge("kv")
    finally:
        boundary.set_hook(None)
    assert seen.count("merge_chunk") == chunks
    db.close()


class TestMergeChunkCrashSweep:
    @pytest.mark.parametrize(
        "mode",
        [DurabilityMode.NVM, DurabilityMode.LOG],
        ids=lambda m: m.value,
    )
    def test_every_chunk_and_cutover_boundary_is_safe(
        self, tmp_path, mode, monkeypatch
    ):
        """Kill the chunked online merge at every boundary it emits; the
        recovered state must equal the pre-merge committed state."""
        monkeypatch.setattr(merge, "MERGE_CHUNK_ROWS", 8)
        config = make_config(mode, group_commit_size=1)

        db = Database(str(tmp_path / "count"), config)
        expected = _build_mixed(db, rows=40)
        with CrashPointInjector() as counter:
            db.merge("kv")
        total = counter.events
        kinds = counter.by_kind
        db.close()

        # The chunked fold must actually expose multiple chunk
        # boundaries plus the single cutover point.
        assert kinds.get("merge_chunk", 0) >= 2
        assert kinds.get("merge_cutover", 0) == 1
        assert total >= 3

        for point in range(1, total + 1):
            path = str(tmp_path / f"pt{point}")
            db = Database(path, config)
            expected = _build_mixed(db, rows=40)
            with CrashPointInjector(crash_at=point):
                with pytest.raises(SimulatedPowerFailure):
                    db.merge("kv")
                db.crash(seed=point)
            recovered = Database(path, config)
            assert recovered.verify() == [], f"invariants broken at {point}"
            assert _snapshot(recovered) == expected, (
                f"merge crash at boundary {point} changed logical state"
            )
            recovered.close()
            shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# LOG-mode merge record
# ----------------------------------------------------------------------


class TestMergeRecord:
    def test_roundtrip(self):
        record = MergeRecord(
            table_id=7,
            watermark=5,
            main_mask=(True, False, True, True),
            delta_mask=(False, True, True, False, True),
        )
        buffer = encode_record(record)
        decoded, consumed = decode_record(buffer, 0)
        assert consumed == len(buffer)
        assert decoded == record

    def test_empty_masks_roundtrip(self):
        record = MergeRecord(
            table_id=1, watermark=0, main_mask=(), delta_mask=()
        )
        decoded, _ = decode_record(encode_record(record), 0)
        assert decoded == record

    def test_log_replay_without_checkpoint(self, tmp_path):
        """After an online merge, a LOG restart with no checkpoint must
        replay the merge record at its log position — and land on the
        merged layout with post-merge commits intact. The power fails
        between the merge record and the checkpoint that follows it."""
        config = make_config(DurabilityMode.LOG, group_commit_size=1)
        db = Database(str(tmp_path / "db"), config)
        expected = _build_mixed(db, rows=12)

        def commit_then_crash(table):
            db.insert("kv", {"key": 500, "note": "post-merge"})
            db.crash(seed=9)

        db._driver.on_merge_complete = commit_then_crash
        db.merge("kv")
        expected[500] = "post-merge"

        recovered = Database(str(tmp_path / "db"), config)
        assert recovered.verify() == []
        assert recovered.last_recovery.merges_replayed == 1
        table = recovered.table("kv")
        assert table.generation == 1
        assert _snapshot(recovered) == expected
        # the post-merge insert replays into the rebuilt delta, not main
        assert table.delta_row_count == 1
        recovered.close()


# ----------------------------------------------------------------------
# Maintenance daemon
# ----------------------------------------------------------------------


class TestMaintenanceDaemon:
    def test_disabled_without_merge_policy(self, none_db):
        assert not none_db._maintenance.enabled
        assert not none_db._maintenance.running

    def test_enabled_and_running_with_threshold(self, tmp_path):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.NONE, auto_merge_rows=10),
        )
        assert db._maintenance.enabled
        assert db._maintenance.running
        db.close()
        assert not db._maintenance.running

    def test_merges_at_the_threshold_and_not_below(self, tmp_path):
        db = Database(
            str(tmp_path / "db"),
            make_config(DurabilityMode.NONE, auto_merge_rows=4),
        )
        db.create_table("kv", SCHEMA)
        table = db.table("kv")
        db.insert_many("kv", [{"key": k, "note": f"n{k}"} for k in range(3)])
        assert db._maintenance.wait_idle(timeout=10.0)
        time.sleep(0.1)
        assert table.generation == 0
        assert table.delta_row_count == 3
        db.insert("kv", {"key": 3, "note": "n3"})
        assert db._maintenance.wait_idle(timeout=10.0)
        assert table.generation == 1
        assert table.delta_row_count == 0
        db.insert_many("kv", [{"key": 10 + k, "note": "small"} for k in range(3)])
        assert db._maintenance.wait_idle(timeout=10.0)
        time.sleep(0.1)
        assert table.generation == 1
        assert table.delta_row_count == 3
        assert db.query("kv").count == 7
        db.close()

    def test_restart_over_the_threshold_merges_without_a_commit(self, tmp_path):
        """Nothing notifies a freshly opened engine: the daemon's first
        pass must find what the restart left over the threshold."""
        path = str(tmp_path / "db")
        db = Database(path, make_config(DurabilityMode.NVM))
        db.create_table("kv", SCHEMA)
        db.insert_many("kv", [{"key": k, "note": f"n{k}"} for k in range(10)])
        db.close()
        db = Database(path, make_config(DurabilityMode.NVM, auto_merge_rows=4))
        deadline = time.monotonic() + 10.0
        while db.table("kv").delta_row_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert db.table("kv").delta_row_count == 0
        assert db.table("kv").main_row_count == 10
        db.close()

    def test_merge_failure_is_counted_and_retried(self, tmp_path):
        from repro.obs import get_registry

        db = Database(
            str(tmp_path / "db"),
            make_config(
                DurabilityMode.NONE,
                auto_merge_rows=2,
                merge_cutover_timeout_s=0.05,
            ),
        )
        db.create_table("kv", SCHEMA)
        failures = get_registry().counter("maintenance_merge_failures_total")
        before = failures.value
        holder = db.begin()
        holder.insert("kv", {"key": 1, "note": "held"})
        db.insert_many(
            "kv", [{"key": 10 + k, "note": f"n{k}"} for k in range(4)]
        )
        deadline = time.monotonic() + 10.0
        while failures.value == before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert failures.value > before  # cutover starved, counted, survived
        assert db._maintenance.running
        holder.commit()
        deadline = time.monotonic() + 10.0
        while db.table("kv").generation == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert db.table("kv").generation >= 1  # ... and retried to success
        db.close()

    def test_merge_is_retried_after_the_holder_aborts(self, tmp_path):
        """Abort notifies nobody: only the failed target's rest deadline
        can wake the daemon for the retry."""
        from repro.obs import get_registry

        db = Database(
            str(tmp_path / "db"),
            make_config(
                DurabilityMode.NONE,
                auto_merge_rows=2,
                merge_cutover_timeout_s=0.05,
            ),
        )
        db.create_table("kv", SCHEMA)
        failures = get_registry().counter("maintenance_merge_failures_total")
        before = failures.value
        holder = db.begin()
        holder.insert("kv", {"key": 1, "note": "held"})
        db.insert_many(
            "kv", [{"key": 10 + k, "note": f"n{k}"} for k in range(4)]
        )
        deadline = time.monotonic() + 10.0
        while failures.value == before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert failures.value > before
        holder.abort()
        deadline = time.monotonic() + 10.0
        while db.table("kv").generation == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert db.table("kv").generation >= 1
        assert db.query("kv").count == 4
        db.close()
