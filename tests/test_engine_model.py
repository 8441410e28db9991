"""Model-based engine testing: the database vs. a plain dict.

Hypothesis drives random transaction streams against the engine and a
reference model; after every commit/abort the visible state must match.
A mid-stream and a final restart (per mode) re-check against the model,
each followed by a write *before* the first read and then asked both by
full scan and key by key through the secondary index: the volatile half
of an index is rebuilt lazily, and the first thing to touch it after a
reopen may be either.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.query.predicate import Eq
from repro.storage.types import DataType

from tests.conftest import make_config

SCHEMA = {"key": DataType.INT64, "payload": DataType.STRING}

_actions = st.lists(
    st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 20), st.text(max_size=6)),
            st.tuples(st.just("update"), st.integers(0, 20), st.text(max_size=6)),
            st.tuples(st.just("delete"), st.integers(0, 20), st.just("")),
        ),
        min_size=1,
        max_size=4,
    ).flatmap(
        lambda ops: st.tuples(st.just(ops), st.booleans())  # (ops, commit?)
    ),
    max_size=12,
)


def _apply_to_engine(db: Database, ops, commit: bool) -> bool:
    txn = db.begin()
    try:
        for action, key, payload in ops:
            if action == "insert":
                # Model keys are unique: replace = delete + insert.
                refs = txn.query("kv", Eq("key", key)).refs()
                for ref in refs:
                    txn.delete("kv", ref)
                txn.insert("kv", {"key": key, "payload": payload})
            else:
                refs = txn.query("kv", Eq("key", key)).refs()
                if not refs:
                    continue
                if action == "delete":
                    txn.delete("kv", refs[0])
                else:
                    txn.update("kv", refs[0], {"payload": payload})
        if commit:
            txn.commit()
            return True
        txn.abort()
        return False
    except Exception:
        if txn.is_active:
            txn.abort()
        raise


def _apply_to_model(model: dict, ops) -> None:
    for action, key, payload in ops:
        if action == "insert":
            model[key] = payload
        elif action == "delete":
            model.pop(key, None)
        elif key in model:
            model[key] = payload


def _visible(db: Database) -> dict:
    return {row["key"]: row["payload"] for row in db.query("kv").rows()}


def _visible_by_index(db: Database, model: dict) -> dict:
    """The state of :func:`_visible`, asked one indexed lookup per key."""
    out = {}
    for key in set(model) | set(range(21)):
        rows = db.query("kv", Eq("key", key)).rows()
        assert len(rows) <= 1
        if rows:
            out[key] = rows[0]["payload"]
    return out


def _restart_then_write(db: Database, model: dict) -> Database:
    """Reopen and write (a key no action uses) before anything reads."""
    db = db.restart()
    key = min([0, *model]) - 1
    db.insert("kv", {"key": key, "payload": "w"})
    model[key] = "w"
    assert _visible_by_index(db, model) == model
    assert _visible(db) == model
    return db


@pytest.mark.parametrize(
    "mode", [DurabilityMode.NVM, DurabilityMode.LOG, DurabilityMode.NONE]
)
@given(stream=_actions, restart_at=st.integers(0, 11))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_engine_matches_model(tmp_path_factory, mode, stream, restart_at):
    path = str(tmp_path_factory.mktemp("model-db"))
    db = Database(path, make_config(mode))
    db.create_table("kv", SCHEMA)
    db.create_index("kv", "key")
    model: dict[int, str] = {}
    durable = mode is not DurabilityMode.NONE
    try:
        for i, (ops, commit) in enumerate(stream):
            if durable and i == restart_at:
                db = _restart_then_write(db, model)
            if _apply_to_engine(db, ops, commit):
                _apply_to_model(model, ops)
            assert _visible(db) == model
        if durable:
            db = _restart_then_write(db, model)
    finally:
        db.close()


@pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.LOG])
@given(stream=_actions, merge_at=st.integers(0, 11))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_engine_matches_model_with_merge(tmp_path_factory, mode, stream, merge_at):
    path = str(tmp_path_factory.mktemp("model-db"))
    db = Database(path, make_config(mode))
    db.create_table("kv", SCHEMA)
    db.create_index("kv", "key")
    model: dict[int, str] = {}
    try:
        for i, (ops, commit) in enumerate(stream):
            if i == merge_at:
                db.merge("kv")
                assert _visible(db) == model
            if _apply_to_engine(db, ops, commit):
                _apply_to_model(model, ops)
        db.merge("kv")
        assert _visible(db) == model
        db = _restart_then_write(db, model)
    finally:
        db.close()
