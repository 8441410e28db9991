"""The vectorized batch write path: equivalence, atomicity, coalescing.

``insert_many`` must be indistinguishable from N scalar ``insert``
calls in every observable way — query results, dictionary contents,
WAL replay, and NVM recovery — while doing asymptotically less work:
one dictionary pass per column, one coalesced flush per touched NVM
chunk, one WAL record per (txn, table).
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database
from repro.nvm.pool import PMemMode
from repro.query.predicate import Eq
from repro.storage.delta import DeltaPartition
from repro.storage.types import DataType
from repro.txn.manager import TransactionManager
from repro.wal.reader import read_log
from repro.wal.records import InsertManyRecord

SCHEMA = {
    "id": DataType.INT64,
    "name": DataType.STRING,
    "score": DataType.FLOAT64,
}

MODES = [DurabilityMode.NVM, DurabilityMode.LOG, DurabilityMode.NONE]

SMALL_EXTENT = 8 * 1024 * 1024


def _cfg(mode: DurabilityMode, **overrides) -> EngineConfig:
    kwargs = dict(mode=mode, extent_size=SMALL_EXTENT)
    if mode is DurabilityMode.LOG:
        kwargs["group_commit_size"] = 1
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


def _random_rows(seed: int, n: int) -> list[dict]:
    rng = random.Random(seed)
    names = [None, "alpha", "beta", "αβγ-✓", ""] + [
        f"name-{i}" for i in range(17)
    ]
    rows = []
    for _ in range(n):
        rows.append(
            {
                "id": rng.randrange(-(10**6), 10**6),
                "name": rng.choice(names),
                "score": rng.choice(
                    [None, -0.5, 3.25, rng.random() * 100.0]
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Equivalence: insert_many == N x insert
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_insert_many_equals_n_inserts(tmp_path, mode):
    """Same rows, batch vs scalar: identical state live and recovered."""
    rows = _random_rows(42, 257)
    dbs = []
    for tag, batched in (("batch", True), ("row", False)):
        db = Database(str(tmp_path / f"{tag}"), _cfg(mode))
        db.create_table("t", SCHEMA)
        with db.begin() as txn:
            if batched:
                txn.insert_many("t", rows)
            else:
                for row in rows:
                    txn.insert("t", row)
        dbs.append(db)
    batch_db, row_db = dbs

    assert batch_db.query("t").rows() == row_db.query("t").rows()
    # First-occurrence code assignment makes the dictionaries identical
    # too, not just the decoded values.
    bt, rt = batch_db.table("t"), row_db.table("t")
    for d_batch, d_row in zip(bt.delta.dictionaries, rt.delta.dictionaries):
        assert d_batch.values_list() == d_row.values_list()
    # So the stored image is the same vector for vector: the rows (with
    # their NULLs and repeats) took the one-row encoder on one side and
    # ``np.unique`` on the other.
    for ci in range(len(SCHEMA)):
        assert (
            bt.delta.column_codes(ci).tolist() == rt.delta.column_codes(ci).tolist()
        )
    for vec in ("begin", "end", "tid"):
        assert (
            getattr(bt.delta.mvcc, vec).to_numpy().tolist()
            == getattr(rt.delta.mvcc, vec).to_numpy().tolist()
        )
    assert batch_db.verify() == []
    assert row_db.verify() == []

    if mode is DurabilityMode.NONE:
        batch_db.close()
        row_db.close()
        return

    # Durability round-trip: the batched WAL / NVM image must recover
    # to the identical table state as the row-at-a-time one.
    batch_db.crash(seed=1)
    row_db.crash(seed=2)
    batch_re = Database(batch_db.path, _cfg(mode))
    row_re = Database(row_db.path, _cfg(mode))
    assert batch_re.query("t").count == len(rows)
    assert batch_re.query("t").rows() == row_re.query("t").rows()
    assert batch_re.verify() == []
    assert row_re.verify() == []
    batch_re.close()
    row_re.close()


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_empty_and_single_row_batches(tmp_path, mode):
    db = Database(str(tmp_path / "edge"), _cfg(mode))
    db.create_table("t", SCHEMA)
    assert db.insert_many("t", []) == []
    refs = db.insert_many("t", [{"id": 1, "name": None, "score": 2.5}])
    assert len(refs) == 1
    assert db.query("t").rows() == [{"id": 1, "name": None, "score": 2.5}]
    db.close()


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_bulk_insert_is_insert_many(tmp_path, mode):
    """The loader alias and ``insert_many`` are one path: identical row
    placement, dictionary code order, MVCC stamps, index probes and WAL
    record stream."""
    rows = _random_rows(3, 64)
    twins = []
    for call in ("bulk_insert", "insert_many"):
        db = Database(str(tmp_path / call), _cfg(mode))
        db.create_table("t", SCHEMA)
        db.create_index("t", "id")
        db.insert("t", rows[0])
        out = getattr(db, call)("t", rows[1:])
        assert db.bulk_insert("t", []) == db.last_cid == 2
        twins.append((db, out))
    (bulk, cid), (many, refs) = twins
    assert cid == 2 and len(refs) == len(rows) - 1
    bt, mt = bulk.table("t").delta, many.table("t").delta
    for ci in range(len(SCHEMA)):
        assert bt.column_codes(ci).tolist() == mt.column_codes(ci).tolist()
        assert (
            bt.dictionaries[ci].values_list() == mt.dictionaries[ci].values_list()
        )
    for vec in ("begin", "end", "tid"):
        assert (
            getattr(bt.mvcc, vec).to_numpy().tolist()
            == getattr(mt.mvcc, vec).to_numpy().tolist()
        )
    for row in rows[::7]:
        probe = Eq("id", row["id"])
        assert bulk.query("t", probe).refs() == many.query("t", probe).refs()
    if mode is DurabilityMode.LOG:
        kinds = [
            [type(record) for record, _ in read_log(db._driver.log_path)]
            for db in (bulk, many)
        ]
        assert kinds[0] == kinds[1]
        assert InsertManyRecord in kinds[0]
    for db, _ in twins:
        assert db.verify() == []
        db.close()


@pytest.mark.parametrize("hook", ["publish", "commit"])
def test_bulk_insert_is_invisible_until_it_commits(tmp_path, monkeypatch, hook):
    """A transaction begun between a bulk load's delta publish and its
    commit sees none of the batch for its whole life; one begun after
    the call returns sees all of it."""
    db = Database(str(tmp_path / "snap"), _cfg(DurabilityMode.NVM))
    db.create_table("t", SCHEMA)
    db.insert_many("t", _random_rows(1, 3))
    readers = []
    owner, name = {
        "publish": (DeltaPartition, "insert_rows_encoded"),
        "commit": (TransactionManager, "commit"),
    }[hook]
    original = getattr(owner, name)

    def hooked(self, *args, **kwargs):
        if hook == "commit":
            readers.append(db.begin())
        out = original(self, *args, **kwargs)
        if hook == "publish":
            readers.append(db.begin())
        return out

    monkeypatch.setattr(owner, name, hooked)
    db.bulk_insert("t", _random_rows(2, 10))
    monkeypatch.undo()
    (reader,) = readers
    assert reader.query("t").count == 3
    assert db.begin().query("t").count == db.query("t").count == 13
    assert reader.query("t").count == 3
    db.close()


def test_insert_many_own_write_visibility_and_abort(tmp_path):
    db = Database(str(tmp_path / "ownw"), _cfg(DurabilityMode.NVM))
    db.create_table("t", SCHEMA)
    db.insert("t", {"id": 0, "name": "base", "score": 0.0})
    rows = _random_rows(7, 40)

    txn = db.begin()
    refs = txn.insert_many("t", rows)
    table = db.table("t")
    # The batch is visible to its own transaction ...
    assert txn.query("t").count == 1 + len(rows)
    assert all(txn.ctx.row_visible(table, ref) for ref in refs)
    # ... and to nobody else until commit.
    assert db.query("t").count == 1
    txn.commit()
    assert db.query("t").count == 1 + len(rows)

    txn2 = db.begin()
    txn2.insert_many("t", rows)
    txn2.abort()
    assert db.query("t").count == 1 + len(rows)
    assert db.verify() == []
    db.close()


# ----------------------------------------------------------------------
# Crash atomicity: a torn batch vanishes entirely
# ----------------------------------------------------------------------


@pytest.mark.parametrize("survivors", [0.0, 0.5])
def test_crash_before_begin_publish_loses_whole_batch(tmp_path, survivors):
    """Kill the txn after the column extends but before the begin-vector
    publish: recovery must see zero rows of the torn batch."""
    cfg = _cfg(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
    path = str(tmp_path / "torn")
    db = Database(path, cfg)
    db.create_table("t", SCHEMA)
    baseline = _random_rows(1, 9)
    db.insert_many("t", baseline)
    batch = _random_rows(2, 500)

    delta = db.table("t").delta
    begin_vec = delta.mvcc.begin
    original_extend = begin_vec.extend

    def power_cut(values):
        raise RuntimeError("power cut before publish")

    begin_vec.extend = power_cut
    txn = db.begin()
    with pytest.raises(RuntimeError, match="power cut"):
        txn.insert_many("t", batch)
    begin_vec.extend = original_extend
    # Code/end/tid vectors have durable torn tails; begin never grew.
    assert len(delta.mvcc.tid) > delta.row_count
    db.crash(survivor_fraction=survivors, seed=13)

    recovered = Database(path, cfg)
    assert recovered.query("t").count == len(baseline)
    assert recovered.query("t").rows() == Database.query(
        recovered, "t"
    ).rows()  # stable across repeated scans
    assert recovered.verify() == []

    # Re-inserting over the torn tails exercises the overwrite path of
    # the batch insert (set_range over dead slots + extend of the rest).
    recovered.insert_many("t", batch)
    assert recovered.query("t").count == len(baseline) + len(batch)
    assert recovered.verify() == []
    recovered.crash(seed=14)
    reopened = Database(path, cfg)
    assert reopened.query("t").count == len(baseline) + len(batch)
    assert reopened.verify() == []
    reopened.close()


def test_crash_mid_begin_publish_loses_whole_batch(tmp_path):
    """Deeper cut: the begin payload lands but its size store does not —
    the published row count is the only authority."""
    cfg = _cfg(DurabilityMode.NVM, pmem_mode=PMemMode.STRICT)
    path = str(tmp_path / "midpub")
    db = Database(path, cfg)
    db.create_table("t", SCHEMA)
    db.insert_many("t", _random_rows(3, 5))
    count_before = db.query("t").count

    begin_vec = db.table("t").delta.mvcc.begin
    original_publish = begin_vec._publish_size

    def torn_publish(new_size, fence=True):
        raise RuntimeError("power cut mid publish")

    begin_vec._publish_size = torn_publish
    txn = db.begin()
    with pytest.raises(RuntimeError, match="mid publish"):
        txn.insert_many("t", _random_rows(4, 300))
    begin_vec._publish_size = original_publish
    db.crash(seed=21)

    recovered = Database(path, cfg)
    assert recovered.query("t").count == count_before
    assert recovered.verify() == []
    recovered.close()


@pytest.mark.parametrize(
    "mode", [DurabilityMode.NVM, DurabilityMode.LOG], ids=["nvm", "log"]
)
def test_crash_after_publish_before_commit_rolls_back(tmp_path, mode):
    """A fully published but uncommitted batch rolls back at recovery."""
    cfg = _cfg(mode, pmem_mode=PMemMode.STRICT)
    path = str(tmp_path / "uncommitted")
    db = Database(path, cfg)
    db.create_table("t", SCHEMA)
    db.insert_many("t", _random_rows(5, 11))

    txn = db.begin()
    txn.insert_many("t", _random_rows(6, 777))
    db.crash(seed=3)  # no commit

    recovered = Database(path, cfg)
    assert recovered.query("t").count == 11
    assert recovered.verify() == []
    recovered.close()


@pytest.mark.parametrize(
    "mode", [DurabilityMode.NVM, DurabilityMode.LOG], ids=["nvm", "log"]
)
def test_batch_rolled_back_after_publish_stays_absent_after_a_crash(
    tmp_path, monkeypatch, mode
):
    """A batch that fails after its rows were published aborts; a crash
    after that keeps every committed batch and none of its rows."""
    cfg = _cfg(mode, pmem_mode=PMemMode.STRICT)
    path = str(tmp_path / "aborted")
    db = Database(path, cfg)
    db.create_table("t", SCHEMA)
    before = _random_rows(7, 40)
    db.insert_many("t", before)

    def failing(table, refs):
        raise OSError("injected: index upkeep failed after the publish")

    monkeypatch.setattr(db, "_index_new_rows", failing)
    with pytest.raises(OSError, match="injected"):
        db.insert_many("t", _random_rows(8, 300))
    monkeypatch.undo()
    after = _random_rows(9, 25)
    db.insert_many("t", after)
    db.crash(seed=4)

    recovered = Database(path, cfg)
    got = recovered.query("t").rows()
    assert sorted(got, key=repr) == sorted(before + after, key=repr)
    assert recovered.verify() == []
    recovered.close()


# ----------------------------------------------------------------------
# Coalescing: flushes scale with touched chunks, reads are not re-billed
# ----------------------------------------------------------------------


def test_flush_count_scales_with_chunks_not_cells(tmp_path):
    db = Database(str(tmp_path / "flush"), _cfg(DurabilityMode.NVM))
    db.create_table(
        "n", {"a": DataType.INT64, "b": DataType.INT64, "c": DataType.INT64}
    )
    stats = db._pool.stats
    n = 2048
    rows = [{"a": i, "b": i % 7, "c": -i} for i in range(n)]
    stats.reset()
    db.insert_many("n", rows)
    # 6 vectors (3 code + begin/end/tid) x ~1 chunk each, plus
    # dictionary extends, txn-table records, and the commit fix-up —
    # two orders of magnitude below the rows x columns cell count.
    assert stats.flush_calls < n // 8
    assert stats.drain_calls < n // 8
    assert db.query("n").count == n

    # Doubling the batch must not double the flush count per row: the
    # per-row flush cost falls as batches grow (amortised publish).
    stats.reset()
    db.insert_many("n", [{"a": i, "b": 1, "c": 2} for i in range(2 * n)])
    assert stats.flush_calls < n // 4
    db.close()


def test_bulk_reads_do_not_recharge_nvm_traffic(tmp_path):
    """Re-scanning published data reads through cached chunk views: no
    additional modelled read traffic, no new views."""
    db = Database(str(tmp_path / "reads"), _cfg(DurabilityMode.NVM))
    db.create_table("t", SCHEMA)
    db.insert_many("t", _random_rows(8, 3000))
    stats = db._pool.stats

    first = db.query("t").rows()
    bytes_before = stats.bytes_read
    views_before = stats.views_created
    second = db.query("t").rows()
    assert second == first
    assert stats.bytes_read == bytes_before
    assert stats.views_created == views_before
    db.close()
