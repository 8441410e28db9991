"""The whole :class:`~repro.core.Database` surface the server, the crash
sweep and the benchmarks use, driven against a dict model in both
durable modes.
"""

from __future__ import annotations

import importlib
import os

import pytest

from repro.core import Database, DurabilityMode, EngineConfig
from repro.query import Eq, Gt, IsNull, aggregate
from repro.storage import DataType
from repro.storage.table import unpack_rowref
from repro.txn import txn_table
from repro.txn.errors import TooManyActiveTransactions
from repro.wal.writer import RecordTooLarge

from tests.conftest import make_config

SCHEMA = {"id": DataType.INT64, "grp": DataType.STRING, "val": DataType.INT64}

each_mode = pytest.mark.parametrize(
    "mode", [DurabilityMode.NVM, DurabilityMode.LOG], ids=lambda m: m.value
)


def row(key, val, grp="g"):
    return {"id": key, "grp": grp, "val": val}


def visible(engine, table="kv") -> dict:
    """``{id: val}`` of the committed state; ids must be unique."""
    rows = engine.query(table).rows()
    state = {r["id"]: r["val"] for r in rows}
    assert len(state) == len(rows), "an id is visible twice"
    return state


def change(engine, key, val=None):
    """Update (or, with no ``val``, delete) one row in a transaction."""
    with engine.begin() as txn:
        owned = IsNull("id") if key is None else Eq("id", key)
        (ref,) = txn.query("kv", owned).refs()
        if val is None:
            txn.delete("kv", ref)
        else:
            txn.update("kv", ref, {"val": val})


@each_mode
def test_whole_protocol_against_a_model(tmp_path, mode):
    path = str(tmp_path / "eng")
    engine = Database(path, make_config(mode))
    model: dict = {}

    # -- DDL ---------------------------------------------------------------
    engine.create_table("kv", SCHEMA)
    engine.create_table("by_grp", SCHEMA)
    with pytest.raises(ValueError, match="already exists"):
        engine.create_table("kv", SCHEMA)
    engine.create_index("kv", "id")
    assert engine.table_names == ["by_grp", "kv"]
    with pytest.raises(KeyError, match="no table"):
        engine.query("missing")

    # -- scalar and batch writes -----------------------------------------
    engine.insert("kv", row(1, 10))
    model[1] = 10
    # A row that omits its key column has a NULL key.
    engine.insert("kv", {"grp": "null-key", "val": 5})
    model[None] = 5
    engine.insert_many("kv", [row(k, k * 10) for k in range(2, 40)])
    model.update({k: k * 10 for k in range(2, 40)})
    assert engine.bulk_insert("kv", [row(k, k) for k in range(40, 60)]) == (
        engine.last_cid
    )
    model.update({k: k for k in range(40, 60)})
    engine.insert_many(
        "by_grp", [row(k, k, grp=f"g{k % 5}") for k in range(30)] + [{"id": 99}]
    )

    # -- rejected rows are rejected alike, and leave nothing behind -------
    with pytest.raises(KeyError, match="unknown columns"):
        engine.insert("kv", {"id": 70, "nope": 1})
    with pytest.raises(TypeError, match="expected int"):
        engine.insert_many("kv", [row(71, 1), row(71, "not-an-int")])
    assert visible(engine) == model

    # -- interactive transactions ----------------------------------------
    change(engine, 3, -3)
    model[3] = -3
    change(engine, None, 6)
    model[None] = 6
    change(engine, 4)
    del model[4]
    assert visible(engine) == model

    # -- reads -------------------------------------------------------------
    assert engine.query("kv", Eq("id", 3)).rows(["val"]) == [{"val": -3}]
    assert aggregate(engine.query("kv"), "count") == len(model)
    positive = [v for v in model.values() if v > 0]
    assert aggregate(engine.query("kv", Gt("val", 0)), "sum", "val") == sum(positive)
    assert aggregate(engine.query("by_grp"), "count", group_by="grp") == {
        **{f"g{i}": 6 for i in range(5)},
        None: 1,
    }

    # -- maintenance -------------------------------------------------------
    engine.merge("kv")
    change(engine, 5, 555)
    model[5] = 555
    if mode is DurabilityMode.LOG:
        assert engine.checkpoint() > 0
    assert visible(engine) == model
    assert engine.verify() == []

    # -- crash, then reopen -----------------------------------------------
    before = sorted(os.listdir(path))
    engine.crash(seed=1)
    engine = Database(path, EngineConfig(mode=mode))
    assert sorted(os.listdir(path)) == before
    assert engine.verify() == []
    assert visible(engine) == model
    assert engine.table_names == ["by_grp", "kv"]
    assert len(engine.query("by_grp")) == 31
    report = engine.last_recovery
    assert report.total_seconds > 0
    assert report.tables == 2

    # -- and it is still an engine ----------------------------------------
    engine.insert("kv", row(80, 8))
    model[80] = 8
    change(engine, 80, 9)
    model[80] = 9
    engine = engine.restart()
    assert visible(engine) == model
    assert engine.verify() == []
    engine.close()
    engine.close()  # idempotent


@each_mode
def test_stats_and_recovery_report_agree(tmp_path, mode):
    """``stats()``, ``metrics_snapshot()`` and the recovery report of a
    reopened engine count the same rows and carry the same report."""
    path = str(tmp_path / "eng")
    engine = Database(path, make_config(mode))
    engine.create_table("kv", SCHEMA)
    engine.insert_many("kv", [row(k, k) for k in range(100)])
    engine.insert("kv", row(100, 100))
    engine.close()
    engine = Database(path, EngineConfig(mode=mode))
    stats = engine.stats()
    snapshot = engine.metrics_snapshot()
    recovery = engine.last_recovery.as_dict()
    table = stats["tables"]["kv"]
    assert table["main_rows"] + table["delta_rows"] == 101
    assert stats["last_cid"] == engine.last_cid
    assert snapshot["recovery"].keys() == recovery.keys()
    assert snapshot["mode"] == stats["mode"] == recovery["mode"] == mode.value
    engine.close()


@each_mode
def test_insert_each_against_a_model(tmp_path, mode, monkeypatch):
    """Per-row outcomes in input order; a rejected row never drags a
    neighbour; the accepted rows share one commit; a
    transaction that fails as a whole still answers row by row and
    leaves nothing behind; a crash recovers exactly the accepted rows."""
    path = str(tmp_path / "eng")
    monkeypatch.setattr(txn_table, "TXN_SLOTS", 2)
    engine = Database(path, make_config(mode))
    engine.create_table("kv", SCHEMA)
    engine.create_index("kv", "id")
    model: dict = {}

    def accept(rows, outcomes):
        assert len(outcomes) == len(rows)
        for r, outcome in zip(rows, outcomes):
            if not isinstance(outcome, Exception):
                assert r.get("id") not in model
                model[r.get("id")] = r["val"]
        assert visible(engine) == model
        assert engine.verify() == []
        assert len(engine._manager.active) == 0

    # -- good, malformed and NULL-key rows in one call ---------------------
    rows = [row(k, k * 10) for k in range(40)]
    rows[5] = row("five", 5)
    rows[9] = {"id": 9, "nope": 1}
    rows[13] = {"grp": "null-key", "val": 13}
    commits = engine.stats()["commits"]
    outcomes = engine.insert_each("kv", rows)
    assert engine.stats()["commits"] - commits == 1
    for bad in (5, 9):
        with pytest.raises(type(outcomes[bad])) as alone:
            engine.insert("kv", rows[bad])
        assert str(alone.value) == str(outcomes[bad])
    assert [k for k, o in enumerate(outcomes) if isinstance(o, Exception)] == [5, 9]
    accept(rows, outcomes)
    begins = engine.table("kv").delta.mvcc.begin.to_numpy()
    cids = {
        int(begins[unpack_rowref(ref)[1]])
        for ref in outcomes
        if not isinstance(ref, Exception)
    }
    assert len(cids) == 1

    # -- no such table: every row's answer is insert's ---------------------
    outcomes = engine.insert_each("missing", rows[:3])
    assert [type(o) for o in outcomes] == [KeyError] * 3
    assert all("no table" in str(o) for o in outcomes)
    assert engine.insert_each("kv", []) == []

    # -- the transaction fails as a whole: no free slot --------------------
    held = [engine.begin() for _ in range(2)]
    rows = [row(k, k) for k in range(100, 120)]
    outcomes = engine.insert_each("kv", rows)
    assert all(isinstance(o, TooManyActiveTransactions) for o in outcomes)
    for txn in held:
        txn.abort()
    accept(rows, outcomes)
    retry = [r for r, o in zip(rows, outcomes) if isinstance(o, Exception)]
    accept(retry, engine.insert_each("kv", retry))
    assert set(range(100, 120)) <= set(model)

    # -- ... or the log refuses the group but takes each row alone ---------
    if mode is DurabilityMode.LOG:
        engine._driver.wal._max_record_bytes = 512
        rows = [row(k, k, grp="g" * 40) for k in range(200, 240)]
        rows[7] = row(207, 7, grp="x" * 4096)
        outcomes = engine.insert_each("kv", rows)
        assert [type(o) for o in outcomes if isinstance(o, Exception)] == [
            RecordTooLarge
        ]
        assert isinstance(outcomes[7], RecordTooLarge)
        accept(rows, outcomes)

    # -- crash: exactly the accepted rows ---------------------------------
    engine.crash(seed=1)
    engine = Database(path, EngineConfig(mode=mode))
    assert visible(engine) == model
    assert engine.verify() == []
    engine.close()


def test_the_facade_takes_no_shard_arguments(tmp_path):
    """``EngineConfig`` has no shard count and ``create_table`` no
    partition key: one ``Database`` is the whole engine."""
    with pytest.raises(TypeError):
        EngineConfig(shards=4)
    engine = Database(str(tmp_path / "eng"), make_config(DurabilityMode.NVM))
    with pytest.raises(TypeError):
        engine.create_table("kv", SCHEMA, partition_key="id")
    assert engine.table_names == []
    engine.close()


@pytest.mark.parametrize(
    "cli,required",
    [
        ("repro.server.__main__", ["--path"]),
        ("repro.fault.sweep", []),
    ],
    ids=["server", "sweep"],
)
def test_no_cli_takes_a_shard_count(tmp_path, capsys, cli, required):
    main = importlib.import_module(cli).main
    argv = [arg for flag in required for arg in (flag, str(tmp_path / "data"))]
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--shards", "4"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --shards 4" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
