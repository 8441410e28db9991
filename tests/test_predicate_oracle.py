"""Predicates against a plain-python oracle, row by row.

One rule is under test (DESIGN.md "Predicates"): a column predicate is a
question put to the column's dictionary, so the answer is python's own
comparison of the stored value with the probe — on main as on the
delta, indexed or not, before a merge and after it.
"""

from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    And,
    Between,
    DataType,
    DurabilityMode,
    Eq,
    Ge,
    Gt,
    In,
    IsNull,
    Le,
    Lt,
    Ne,
    Not,
    NotNull,
    Or,
)
from repro.core.database import Database

from tests.conftest import make_config

NAN = float("nan")
BIG = 2**53
INTS = [None, 0, 1, -1, 2, 3, 7, BIG, BIG + 1, -(BIG + 1), BIG + 2, BIG + 3,
        BIG + 4, 2**62, -(2**63), 2**63 - 1]
FLOATS = [None, NAN, 0.0, -0.0, math.inf, -math.inf, 1.5, 2.0, -2.5, 3.0,
          float(BIG), float(BIG + 2), 1e300, 5e-324]
STRINGS = [None, "", "a", "ab", "b", "A", "z", "é", "日本", "a\x00"]
SCHEMA = {
    "id": DataType.INT64,
    "i": DataType.INT64,
    "f": DataType.FLOAT64,
    "s": DataType.STRING,
    "z": DataType.INT64,  # always NULL: rows, but an empty dictionary
}
ROWS = [
    {
        "id": n,
        "i": INTS[n % len(INTS)],
        "f": FLOATS[n % len(FLOATS)],
        "s": STRINGS[n % len(STRINGS)],
        "z": None,
    }
    for n in range(48)
]
NUMERIC = ("i", "f", "z")


# ----------------------------------------------------------------------
# The oracle: python's comparison of one stored value with the probe.
# ----------------------------------------------------------------------


COMPARE = {
    Eq: operator.eq,
    Ne: operator.ne,
    Lt: operator.lt,
    Le: operator.le,
    Gt: operator.gt,
    Ge: operator.ge,
}


def holds(predicate, row: dict) -> bool:
    if isinstance(predicate, And):
        return all(holds(p, row) for p in predicate.parts)
    if isinstance(predicate, Or):
        return any(holds(p, row) for p in predicate.parts)
    if isinstance(predicate, Not):
        return not holds(predicate.part, row)
    v = row[predicate.column]
    if isinstance(predicate, IsNull):
        return v is None
    if isinstance(predicate, NotNull):
        return v is not None
    if v is None:
        return False
    if isinstance(predicate, In):
        return any(v == x for x in predicate.values)
    if isinstance(predicate, Between):
        return predicate.low <= v <= predicate.high
    return COMPARE[type(predicate)](v, predicate.value)


def expected(predicate, rows=ROWS) -> list[int]:
    return [row["id"] for row in rows if holds(predicate, row)]


def show(predicate) -> str:
    """A failing example, readable (predicates have no repr)."""
    name = type(predicate).__name__
    if isinstance(predicate, (And, Or)):
        return f"{name}({', '.join(show(p) for p in predicate.parts)})"
    if isinstance(predicate, Not):
        return f"Not({show(predicate.part)})"
    return f"{name}{tuple(vars(predicate).values())!r}"


def ids(result) -> list[int]:
    return sorted(result.column("id"))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

numbers = st.one_of(
    st.sampled_from([v for v in INTS + FLOATS if v is not None]),
    st.sampled_from([BIG - 1, float(BIG + 4), 2**63, -(2**63) - 1, 10**400,
                     -(10**400), 2.5, -0.5, 1e19, -1e19]),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
)
strings = st.one_of(
    st.sampled_from([s for s in STRINGS if s is not None]), st.text(max_size=3)
)
anything = st.one_of(numbers, strings, st.none(), st.booleans())


def ordered_probe(column: str):
    return numbers if column in NUMERIC else strings


@st.composite
def leaves(draw):
    column = draw(st.sampled_from(["i", "f", "s", "z"]))
    kind = draw(st.sampled_from(
        [Eq, Ne, In, Lt, Le, Gt, Ge, Between, IsNull, NotNull]
    ))
    if kind in (IsNull, NotNull):
        return kind(column)
    if kind in (Eq, Ne):
        return kind(column, draw(anything))
    if kind is In:
        # ``In`` keeps a set: NaN is hashable, a second NaN just joins it.
        return In(column, draw(st.lists(anything, max_size=4)))
    probe = ordered_probe(column)
    if kind is Between:
        return Between(column, draw(probe), draw(probe))
    return kind(column, draw(probe))


predicates = st.recursive(
    leaves(),
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Not, inner),
    ),
    max_leaves=4,
)


# ----------------------------------------------------------------------
# Engines: every layout of the same rows, indexed and not
# ----------------------------------------------------------------------

LAYOUTS = ("delta", "mixed", "merged")


def _load(db: Database, layout: str) -> None:
    for name in ("plain", "indexed"):
        db.create_table(name, SCHEMA)
    for column in ("i", "f", "s", "z"):
        db.create_index("indexed", column)
    half = len(ROWS) // 2
    for name in ("plain", "indexed"):
        db.insert_many(name, ROWS[:half])
        if layout == "mixed":
            db.merge(name)
        db.insert_many(name, ROWS[half:])
        if layout == "merged":
            db.merge(name)
    db.create_table("empty", SCHEMA)


@pytest.fixture(
    scope="module",
    params=[DurabilityMode.NVM, DurabilityMode.NONE],
    ids=lambda mode: mode.name,
)
def engines(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"oracle-{request.param.name}")
    opened = {}
    for layout in LAYOUTS:
        db = Database(str(root / layout), make_config(request.param))
        _load(db, layout)
        opened[layout] = db
    yield opened
    for db in opened.values():
        db.close()


@settings(max_examples=300, deadline=None)
@given(predicate=predicates)
def test_every_layout_gives_pythons_answer(engines, predicate):
    want = expected(predicate)
    for layout, db in engines.items():
        where = f"{layout}: {show(predicate)}"
        assert ids(db.query("plain", predicate)) == want, where
        assert ids(db.query("indexed", predicate)) == want, f"indexed {where}"
        assert db.query("empty", predicate).count == 0


# The cases ISSUE 22 names: at the parent main compared through numpy's
# casts and the delta in exact python, so a merge changed the answer.
MERGE_CASES = [
    Lt("i", NAN),
    Ge("i", NAN),
    Le("i", 2.0**53),
    Gt("i", 2.0**53),
    Lt("i", float(BIG + 4)),
    Eq("i", float(BIG + 4)),
    Between("i", 2.5, 1e19),
    Gt("f", math.inf),
    Le("f", math.inf),
    Between("f", -2.5, NAN),
    Lt("f", BIG + 1),
    Ge("f", BIG + 1),
    Le("f", 10**400),
    Eq("f", NAN),
    Eq("i", None),
    Ne("f", NAN),
    In("f", [NAN, 2, 3.0]),
    Not(Lt("f", 0)),
]


@pytest.mark.parametrize("mode", [DurabilityMode.NVM, DurabilityMode.NONE])
def test_merge_does_not_change_an_answer(tmp_path, mode):
    db = Database(str(tmp_path / "db"), make_config(mode))
    try:
        _load(db, "mixed")
        before = [
            (ids(db.query("plain", p)), ids(db.query("indexed", p)))
            for p in MERGE_CASES
        ]
        db.merge("plain")
        db.merge("indexed")
        for predicate, (plain, indexed) in zip(MERGE_CASES, before):
            want = expected(predicate)
            wire = show(predicate)
            assert plain == indexed == want, wire
            assert ids(db.query("plain", predicate)) == want, wire
            assert ids(db.query("indexed", predicate)) == want, wire
    finally:
        db.close()


@pytest.mark.parametrize(
    "predicate",
    [
        Lt("s", 5),
        Ge("s", 1.5),
        Between("s", "a", 7),
        Le("i", "5"),
        Gt("f", "x"),
        Lt("i", [1]),
    ],
    ids=lambda p: f"{type(p).__name__}-{p.column}",
)
def test_unordered_bound_raises_on_both_partitions(engines, predicate):
    """A bound the column's values cannot be ordered against is a
    TypeError wherever the rows live — an empty table included — and
    leaves the engine answering."""
    for db in engines.values():
        for table in ("plain", "indexed", "empty"):
            with pytest.raises(TypeError):
                db.query(table, predicate)
        assert db.query("plain", NotNull("id")).count == len(ROWS)


@pytest.mark.parametrize("kind", [Lt, Le, Gt, Ge])
def test_null_is_not_an_operand(kind):
    """``None`` is an open end only below the public classes; python
    orders nothing against it, so neither does a comparison."""
    with pytest.raises(TypeError):
        kind("i", None)
    with pytest.raises(TypeError):
        Between("i", None, 3)
    with pytest.raises(TypeError):
        Between("i", 3, None)


def test_a_value_the_dictionary_never_saw_reads_no_column(engines, monkeypatch):
    """Membership is decided by the dictionary probe alone: for an
    absent value neither partition's code vector is touched."""
    from repro.storage.delta import DeltaPartition
    from repro.storage.main import MainPartition

    def forbidden(self, col):
        raise AssertionError("the predicate read a code vector")

    monkeypatch.setattr(DeltaPartition, "column_codes", forbidden)
    monkeypatch.setattr(MainPartition, "column_codes", forbidden)
    for db in engines.values():
        table = db.table("plain")
        main, delta = table.content
        for predicate in (Eq("i", 12345), Eq("s", "absent"), In("f", [9.5, NAN])):
            assert not predicate.eval_main(main, table.schema).any()
            assert not predicate.eval_delta(delta, table.schema).any()
        assert not Lt("i", NAN).eval_main(main, table.schema).any()
