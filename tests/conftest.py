"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database
from repro.nvm.pool import PMemMode, PMemPool
from repro.storage.delta import DeltaPartition
from repro.storage.merge import fold_generation, freeze_plan
from repro.storage.mvcc import NO_TID
from repro.storage.table import pack_rowref
from repro.storage.types import DataType

SMALL_EXTENT = 2 * 1024 * 1024


@pytest.fixture
def pool_dir(tmp_path):
    return str(tmp_path / "pool")


@pytest.fixture
def pool(pool_dir):
    p = PMemPool.create(pool_dir, extent_size=SMALL_EXTENT, mode=PMemMode.FAST)
    yield p
    if not p._closed:
        p.close()


@pytest.fixture
def strict_pool(pool_dir):
    p = PMemPool.create(pool_dir, extent_size=SMALL_EXTENT, mode=PMemMode.STRICT)
    yield p
    if not p._closed:
        p.close()


def wal_commit(writer, tid: int, cid: int) -> None:
    """Commit the way the transaction manager does: append the commit
    record, then wait at the barrier the writer's policy sets."""
    writer.commit_barrier(writer.append_commit(tid, cid))


def stall_first_snapshot(dictionary, hold: float = 0.3):
    """Make the first ``values_array()`` on ``dictionary`` linger after
    it has read the values: it sets ``snapshotted``, then waits up to
    ``hold`` seconds for ``resume``. That is the window of the lookup
    rebuild — a writer let in here appends a value the snapshot lacks.
    Returns ``(snapshotted, resume)``."""
    snapshotted, resume = threading.Event(), threading.Event()
    original = dictionary.values_array

    def values_array():
        values = original()
        if not snapshotted.is_set():
            snapshotted.set()
            resume.wait(hold)
        return values

    dictionary.values_array = values_array
    return snapshotted, resume


def merge_table(table, backend) -> tuple:
    """The merge, quiesced and outside an engine, for tests that drive a
    bare ``Table``: the next ``(main, delta)`` pair, which the caller
    publishes."""
    new_main = fold_generation(table, freeze_plan(table), backend)
    return new_main, DeltaPartition.create(table.schema, backend)


def place_rows(delta, rows, tid: int = 1, cid=None) -> int:
    """Append ``rows`` (values in schema order) to ``delta`` the way
    ``insert_many`` places them: ``tid``'s uncommitted inserts, or, with
    ``cid`` (one, or one per row), committed at it. Returns the first
    row's index."""
    first = delta.row_count
    if rows:
        columns = [list(column) for column in zip(*rows)]
        delta.insert_rows_encoded(delta.encode_columns(columns), tid)
        if cid is not None:
            delta.mvcc.set_begin_range(first, len(rows), cid)
            delta.mvcc.set_tid_range(first, len(rows), NO_TID)
    return first


def commit_rows(table, rows, cid=1) -> list[int]:
    """``rows`` committed at ``cid`` in ``table``'s delta; their rowrefs."""
    first = place_rows(table.delta, rows, cid=cid)
    return [pack_rowref(True, first + i) for i in range(len(rows))]


def make_config(mode: DurabilityMode, **overrides) -> EngineConfig:
    defaults = dict(mode=mode, extent_size=SMALL_EXTENT)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def tree(root: str) -> list[str]:
    """Every path under ``root``, relative and sorted."""
    return sorted(
        os.path.relpath(os.path.join(at, name), root)
        for at, dirs, files in os.walk(root)
        for name in dirs + files
    )


def write_sharded_layout(path: str, mode: DurabilityMode) -> None:
    """The layout the removed sharded engine left: ``shards.json`` and
    one full engine directory per shard, holding rows."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "shards.json"), "w") as f:
        json.dump({"shards": 1, "format": 1}, f)
    db = Database(os.path.join(path, "shard-0000"), make_config(mode))
    db.create_table("t", {"a": DataType.INT64})
    db.insert("t", {"a": 1})
    db.close()


@pytest.fixture
def nvm_db(tmp_path):
    db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
    yield db
    db.close()


@pytest.fixture
def log_db(tmp_path):
    db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
    yield db
    db.close()


@pytest.fixture
def none_db(tmp_path):
    db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NONE))
    yield db
    db.close()


@pytest.fixture(params=[DurabilityMode.NVM, DurabilityMode.LOG, DurabilityMode.NONE])
def any_db(request, tmp_path):
    """The same behavioural tests run against every engine mode."""
    db = Database(str(tmp_path / "db"), make_config(request.param))
    yield db
    db.close()
