"""Randomised failure injection: crash anywhere, recover, check invariants.

The oracle: every transaction the workload *knows* committed must be
fully visible after recovery; every transaction that never committed
must be fully invisible. Transactions in flight at the crash may land
either way for the LOG engine with group commit (atomic per txn), and
must be rolled back for the NVM engine — in all cases the database must
pass the consistency validator.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.nvm.pool import PMemMode
from repro.query.predicate import Eq
from repro.recovery.validator import validate_database
from repro.storage.types import DataType

from tests.conftest import make_config

SCHEMA = {"key": DataType.INT64, "note": DataType.STRING}


class Oracle:
    """Ground truth of the expected visible state, keyed by `key`."""

    def __init__(self):
        self.committed: dict[int, str] = {}

    def apply(self, ops: list[tuple[str, int, str]]) -> None:
        for action, key, note in ops:
            if action == "insert":
                self.committed[key] = note
            elif action == "delete":
                self.committed.pop(key, None)
            else:  # update
                self.committed[key] = note


def _random_txn(rng: random.Random, next_key: list[int], live_keys: list[int]):
    """Plan one transaction as a list of (action, key, note) steps."""
    ops = []
    for _ in range(rng.randint(1, 4)):
        dice = rng.random()
        if dice < 0.6 or not live_keys:
            key = next_key[0]
            next_key[0] += 1
            ops.append(("insert", key, f"v{rng.randrange(1000)}"))
            live_keys.append(key)
        elif dice < 0.8:
            key = rng.choice(live_keys)
            ops.append(("update", key, f"u{rng.randrange(1000)}"))
        else:
            key = rng.choice(live_keys)
            live_keys.remove(key)
            ops.append(("delete", key, ""))
    return ops


def _execute(db: Database, ops) -> bool:
    """Run one planned transaction; returns True when committed."""
    txn = db.begin()
    try:
        for action, key, note in ops:
            if action == "insert":
                txn.insert("kv", {"key": key, "note": note})
            else:
                refs = txn.query("kv", Eq("key", key)).refs()
                if not refs:
                    continue
                if action == "delete":
                    txn.delete("kv", refs[0])
                else:
                    txn.update("kv", refs[0], {"note": note})
        txn.commit()
        return True
    except Exception:
        if txn.is_active:
            txn.abort()
        return False


def _run_crash_round(
    tmp_path, seed: int, mode: DurabilityMode, indexed=(), **cfg_overrides
):
    rng = random.Random(seed)
    cfg = make_config(mode, **cfg_overrides)
    path = str(tmp_path / f"db-{mode.value}-{seed}")
    db = Database(path, cfg)
    db.create_table("kv", SCHEMA)
    for column in indexed:
        db.create_index("kv", column)

    oracle = Oracle()
    next_key = [0]
    live: list[int] = []
    txn_count = rng.randint(5, 30)
    for _ in range(txn_count):
        ops = _random_txn(rng, next_key, live)
        if _execute(db, ops):
            oracle.apply(ops)

    # Leave a victim transaction in flight, then pull the plug.
    victim = db.begin()
    victim.insert("kv", {"key": 10**6, "note": "doomed"})
    if rng.random() < 0.5 and oracle.committed:
        key = rng.choice(sorted(oracle.committed))
        refs = victim.query("kv", Eq("key", key)).refs()
        if refs:
            victim.delete("kv", refs[0])
    db.crash(survivor_fraction=rng.choice([0.0, 0.3, 1.0]), seed=seed)

    db = Database(path, cfg)
    problems = validate_database(db._tables_by_id.values(), db.last_cid)
    assert not problems, problems
    rows = db.query("kv").rows()
    found = {row["key"]: row["note"] for row in rows}
    assert found == oracle.committed, (
        f"seed {seed}: expected {len(oracle.committed)} keys, got {len(found)}"
    )
    assert 10**6 not in found  # the doomed insert must never surface
    # Point reads agree with the scan. On an indexed column the index's
    # delta half, empty after the reopen, catches up on the first one.
    for key, note in sorted(oracle.committed.items())[:5]:
        assert db.query("kv", Eq("key", key)).rows() == [{"key": key, "note": note}]
        same_note = {k for k, n in oracle.committed.items() if n == note}
        assert {r["key"] for r in db.query("kv", Eq("note", note)).rows()} == same_note
    db.close()


@pytest.mark.parametrize("seed", range(8))
def test_nvm_strict_crash_consistency(tmp_path, seed):
    _run_crash_round(
        tmp_path, seed, DurabilityMode.NVM, pmem_mode=PMemMode.STRICT
    )


@pytest.mark.parametrize("seed", range(8))
def test_log_sync_crash_consistency(tmp_path, seed):
    _run_crash_round(tmp_path, seed, DurabilityMode.LOG, group_commit_size=1)


@pytest.mark.parametrize("seed", range(4))
def test_nvm_crash_with_indexes(tmp_path, seed):
    _run_crash_round(
        tmp_path,
        seed + 100,
        DurabilityMode.NVM,
        indexed=("key", "note"),
        pmem_mode=PMemMode.STRICT,
    )


@pytest.mark.parametrize("seed", range(4))
def test_nvm_crash_after_merge(tmp_path, seed):
    rng = random.Random(seed)
    cfg = make_config(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
    path = str(tmp_path / "db")
    db = Database(path, cfg)
    db.create_table("kv", SCHEMA)
    db.create_index("kv", "key")
    db.bulk_insert("kv", [{"key": i, "note": f"n{i}"} for i in range(40)])
    db.merge("kv")
    with db.begin() as txn:
        ref = txn.query("kv", Eq("key", 5)).refs()[0]
        txn.delete("kv", ref)
    txn = db.begin()
    txn.insert("kv", {"key": 500, "note": "ghost"})
    db.crash(seed=seed)
    db = Database(path, cfg)
    assert db.query("kv").count == 39
    assert db.query("kv", Eq("key", 5)).count == 0
    assert db.query("kv", Eq("key", 500)).count == 0
    assert not validate_database(db._tables_by_id.values(), db.last_cid)
    db.close()


def test_log_crash_between_checkpoints(tmp_path):
    cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
    path = str(tmp_path / "db")
    db = Database(path, cfg)
    db.create_table("kv", SCHEMA)
    db.bulk_insert("kv", [{"key": i, "note": "pre"} for i in range(10)])
    db.checkpoint()
    db.bulk_insert("kv", [{"key": 100 + i, "note": "post"} for i in range(5)])
    db.crash()
    db = Database(path, cfg)
    assert db.query("kv").count == 15
    db.crash()  # crash again immediately
    db = Database(path, cfg)
    assert db.query("kv").count == 15
    db.close()


def test_repeated_crashes_converge(tmp_path):
    """Crash, recover, write, crash... state never diverges."""
    cfg = make_config(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
    path = str(tmp_path / "db")
    db = Database(path, cfg)
    db.create_table("kv", SCHEMA)
    expected = {}
    for round_no in range(6):
        key = round_no
        db.insert("kv", {"key": key, "note": f"round{round_no}"})
        expected[key] = f"round{round_no}"
        ghost = db.begin()
        ghost.insert("kv", {"key": 900 + round_no, "note": "ghost"})
        db.crash(survivor_fraction=0.5, seed=round_no)
        db = Database(path, cfg)
        rows = {r["key"]: r["note"] for r in db.query("kv").rows()}
        assert rows == expected, f"round {round_no}"
    db.close()
