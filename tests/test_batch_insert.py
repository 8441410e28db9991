"""The vectorized batch write path: equivalence, atomicity, coalescing.

``insert_many`` must be indistinguishable from N scalar ``insert``
calls in every observable way — query results, dictionary contents,
WAL replay, and NVM recovery — while doing asymptotically less work:
one dictionary pass per column, one coalesced flush per touched NVM
chunk, one WAL record per (txn, table).
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database
from repro.nvm.pool import PMemMode, PMemPool
from repro.query.predicate import Eq
from repro.storage import table as storage_table
from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import UnsortedDictionary
from repro.storage.schema import Schema, SchemaError
from repro.storage.types import NULL_CODE
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
    # the batch encoder on the other.
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


# ----------------------------------------------------------------------
# A batch pays per batch: validated by column, encoded by column
# ----------------------------------------------------------------------


def _count_everywhere(monkeypatch, owner, name):
    """Wrap ``owner.name``, and every ``repro`` module's own binding of
    the same function, in one function that counts its calls in
    ``.count``."""
    fn = getattr(owner, name)

    def calls(*args, **kwargs):
        calls.count += 1
        return fn(*args, **kwargs)

    calls.count = 0
    monkeypatch.setattr(owner, name, calls)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("repro") and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, calls)
    return calls


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_a_well_formed_batch_makes_no_per_row_call(tmp_path, mode, monkeypatch):
    """512 rows, NULLs and repeats included: no row is validated, no
    value is encoded and no rowref is packed one at a time."""
    db = Database(str(tmp_path / "db"), _cfg(mode))
    db.create_table("t", SCHEMA)
    db.insert_many("t", _random_rows(3, 64))
    rows = _random_rows(4, 512)
    counters = [
        _count_everywhere(monkeypatch, Schema, "validate_row"),
        _count_everywhere(monkeypatch, UnsortedDictionary, "code_for_insert"),
        _count_everywhere(monkeypatch, storage_table, "pack_rowref"),
    ]
    refs = db.insert_many("t", rows)
    assert [c.count for c in counters] == [0, 0, 0]
    assert len(refs) == 512 and db.query("t").count == 576
    assert db.table("t").get_row(refs[-1]) == list(rows[-1].values())
    # The counters do count: a scalar insert validates and encodes.
    db.insert("t", {"id": 1, "name": "one", "score": None})
    assert [c.count for c in counters[:2]] == [1, 2]
    db.close()


def _row_major(schema: Schema, rows):
    """What ``insert_many`` validated with before it went by column."""
    return [schema.validate_row(row) for row in rows]


def _raised(fn, *args):
    with pytest.raises(Exception) as caught:
        fn(*args)
    return type(caught.value), str(caught.value)


_GOOD = [{"id": i, "name": f"n{i}", "score": i / 4} for i in range(12)]


def _with(at: dict, base=_GOOD) -> list:
    rows = [dict(row) for row in base]
    for i, row in at.items():
        rows[i] = row
    return rows


@pytest.mark.parametrize(
    "rows",
    [
        _with({4: {"id": 4, "colour": "red"}}),
        _with({6: {"id": True, "name": "t"}}),
        _with({2: {"id": 2, "score": "2.5"}}),
        _with({5: ["id", "name"]}),
        _with({8: None}),
        # Two bad rows in different columns: the first row is named,
        # though its bad column comes after the other row's.
        _with({3: {"id": 3, "score": "x"}, 7: {"id": "7"}}),
        _with({3: {"score": [1.0]}, 7: {"zzz": 1}}),
    ],
    ids=[
        "unknown-column",
        "bool-in-int64",
        "str-in-float64",
        "list-row",
        "none-row",
        "two-bad-rows",
        "bad-value-before-unknown-key",
    ],
)
def test_a_rejected_batch_raises_what_the_row_loop_raises(tmp_path, rows):
    schema = Schema.of(**SCHEMA)
    want = _raised(_row_major, schema, rows)
    assert _raised(schema.validate_columns, rows) == want
    db = Database(str(tmp_path / "db"), _cfg(DurabilityMode.NONE))
    db.create_table("t", SCHEMA)
    assert _raised(db.insert_many, "t", rows) == want
    assert db.query("t").count == 0 and not db._manager.active
    db.close()


def test_a_coerced_batch_is_the_row_loop_by_column():
    """An int in FLOAT64 and a subclass of a column's type take the row
    loop: the same values of the same types, returned by column."""

    class Int(int):
        pass

    schema = Schema.of(**SCHEMA)
    rows = _with({1: {"id": Int(1), "score": 3}, 9: {"name": None}})
    columns = schema.validate_columns(rows)
    want = [list(column) for column in zip(*_row_major(schema, rows))]
    assert columns == want
    assert [type(v) for v in columns[2]] == [type(v) for v in want[2]]
    assert type(columns[2][1]) is float and type(columns[0][1]) is Int


@pytest.mark.parametrize("rows", [[], [{}], [{}] * 3, _GOOD])
def test_exact_types_come_back_as_they_are(rows):
    schema = Schema.of(**SCHEMA)
    columns = schema.validate_columns(rows)
    assert len(columns) == len(SCHEMA)
    for column, name in zip(columns, SCHEMA):
        assert len(column) == len(rows)
        assert all(got is row.get(name) for got, row in zip(column, rows))


def _by_column(rows: list) -> dict:
    """Rows that share their keys, as a ``{name: column}`` mapping."""
    return {name: [row[name] for row in rows] for name in rows[0]}


def _outcome(fn, *args):
    try:
        columns = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return columns, [[type(v) for v in column] for column in columns]


_FULL = [{"id": i, "name": f"n{i}", "score": i / 4} for i in range(12)]


@pytest.mark.parametrize(
    "rows",
    [
        _FULL,
        [{"id": i, "name": None} for i in range(5)],
        [dict(row, colour="red") for row in _FULL],
        [dict(row, colour=None) for row in _FULL],
        _with({6: {"id": True, "name": "t", "score": 1.0}}, _FULL),
        _with({2: {"id": 2, "name": "n", "score": "2.5"}}, _FULL),
        _with({3: {"id": 3, "name": "n", "score": 3}}, _FULL),
        _with(
            {
                3: {"id": 3, "name": 1, "score": "x"},
                7: {"id": "7", "name": "n", "score": 1.0},
            },
            _FULL,
        ),
        [],
    ],
    ids=[
        "exact",
        "missing-column",
        "unknown-column",
        "unknown-column-of-nulls",
        "bool-in-int64",
        "str-in-float64",
        "int-in-float64",
        "two-bad-rows",
        "empty",
    ],
)
def test_a_column_mapping_is_validated_as_its_rows(tmp_path, rows):
    """``{name: column}`` answers what the rows answer: the same columns
    of the same types, or the same error; and inserts the same rows."""
    schema = Schema.of(**SCHEMA)
    mapping = _by_column(rows) if rows else {}
    want = _outcome(schema.validate_columns, rows)
    assert _outcome(schema.validate_columns, mapping) == want
    db = Database(str(tmp_path / "db"), _cfg(DurabilityMode.NVM))
    db.create_table("rows", SCHEMA)
    db.create_table("columns", SCHEMA)
    outcomes = []
    for table, batch in (("rows", rows), ("columns", mapping)):
        try:
            outcomes.append(len(db.insert_many(table, batch)))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert db.query("columns").rows() == db.query("rows").rows()
    db.close()


def test_a_column_mapping_inside_a_transaction(tmp_path):
    db = Database(str(tmp_path / "db"), _cfg(DurabilityMode.LOG))
    db.create_table("t", SCHEMA)
    with db.begin() as txn:
        refs = txn.insert_many("t", {"id": [1, 2], "score": [0.5, None]})
        assert len(refs) == 2
    assert db.query("t").rows() == [
        {"id": 1, "name": None, "score": 0.5},
        {"id": 2, "name": None, "score": None},
    ]
    db.close()


def test_unequal_columns_are_refused_before_anything_lands(tmp_path):
    schema = Schema.of(**SCHEMA)
    with pytest.raises(SchemaError, match="unequal lengths"):
        schema.validate_columns({"id": [1, 2], "name": ["a"]})
    db = Database(str(tmp_path / "db"), _cfg(DurabilityMode.NVM))
    db.create_table("t", SCHEMA)
    with pytest.raises(SchemaError):
        db.insert_many("t", {"id": [1, 2, 3], "score": [1.0]})
    for rows in (["id"], [["id", "name"]], [5], [{"id": 1}, "id"]):
        with pytest.raises(SchemaError, match="a row is a"):
            db.insert_many("t", rows)
    with pytest.raises(SchemaError, match="a row is a"):
        db.insert("t", ["id"])
    assert db.query("t").count == 0 and not db._manager.active
    db.close()


def test_insert_each_validates_each_row_once(tmp_path, monkeypatch):
    """A served tick's rows: validated once on the all-valid path (by
    column, or row by row when one needs coercing), and a mixed tick
    keeps its per-row outcomes."""
    db = Database(str(tmp_path / "db"), _cfg(DurabilityMode.NVM))
    db.create_table("t", SCHEMA)
    by_row = _count_everywhere(monkeypatch, Schema, "validate_row")
    by_column = _count_everywhere(monkeypatch, Schema, "validate_columns")

    refs = db.insert_each("t", _GOOD)
    assert (by_row.count, by_column.count) == (0, 1)
    coerced = _with({5: {"id": 105, "score": 5}})
    by_column.count = 0
    db.insert_each("t", coerced)
    assert (by_row.count, by_column.count) == (len(coerced), 1)

    mixed = _with({2: {"id": "2"}, 6: {"id": 6, "bad": 1}})
    outcomes = db.insert_each("t", mixed)
    for i, outcome in enumerate(outcomes):
        if i in (2, 6):
            assert _raised(Schema.of(**SCHEMA).validate_row, mixed[i]) == (
                type(outcome),
                str(outcome),
            )
        else:
            assert db.table("t").get_row(outcome) == [
                mixed[i].get(name) for name in SCHEMA
            ]
    assert len(refs) == len(_GOOD)
    assert db.query("t").count == 2 * len(_GOOD) + len(mixed) - 2
    db.close()


@pytest.mark.parametrize("backend", ["volatile", "nvm"])
def test_delta_encodes_null_bearing_columns_as_row_by_row(tmp_path, backend):
    """Columns with NULLs, all NULLs and none encode to the codes and
    dictionaries that one row at a time gives, NULLs as NULL_CODE."""
    pool = None
    if backend == "nvm":
        pool = PMemPool.create(str(tmp_path / "pool"), extent_size=SMALL_EXTENT)
    schema = Schema.of(
        a=DataType.INT64, b=DataType.STRING, c=DataType.FLOAT64, d=DataType.INT64
    )
    columns = [
        [None, 5, 5, None, -1, 7, None, 5],
        ["x", None, "y", "x", None, "", "y", None],
        [None] * 8,
        [3, 1, 4, 1, 5, 9, 2, 6],
    ]

    def delta():
        backend = VolatileBackend() if pool is None else NvmBackend(pool)
        return DeltaPartition.create(schema, backend)

    batch, single = delta(), delta()
    encoded = batch.encode_columns(columns)
    by_row = [single.encode_row(list(row)) for row in zip(*columns)]
    for ci, codes in enumerate(encoded):
        assert codes.dtype == np.uint32
        assert codes.tolist() == [row[ci] for row in by_row]
        assert [
            v is None for v in columns[ci]
        ] == (codes == NULL_CODE).tolist()
        assert (
            batch.dictionaries[ci].values_list()
            == single.dictionaries[ci].values_list()
        )
    assert batch.dictionaries[0].values_list() == [5, -1, 7]
    assert len(batch.dictionaries[2]) == 0
    # A second batch reuses the codes the first one assigned.
    again = batch.encode_columns([col[::-1] for col in columns])
    assert [c.tolist() for c in again] == [c[::-1].tolist() for c in encoded]
    if pool is not None:
        pool.close()
