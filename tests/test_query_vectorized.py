"""Vectorized read path vs the scalar reference implementations.

The code-space aggregate kernels and the array-backed join must return
results element-for-element equal to the row-at-a-time implementations
(`aggregate_scalar`, `hash_join_scalar`) across every dtype, NULL
placement, and physical layout (delta-only / merged / split).
"""

import math

import pytest

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.query.aggregate import (
    _merge_state,
    aggregate,
    aggregate_partials,
    aggregate_scalar,
    finalize_partials,
)
from repro.query.join import (
    anti_join,
    hash_join,
    hash_join_scalar,
    join,
    semi_join,
)
from repro.query.predicate import Eq, Gt, In
from repro.query.scan import scan
from repro.storage.backend import VolatileBackend
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType

from tests.conftest import commit_rows, make_config, merge_table

SCHEMA = Schema.of(
    id=DataType.INT64,
    grade=DataType.STRING,
    score=DataType.FLOAT64,
    points=DataType.INT64,
)

# Exercises: NULL group keys, all-NULL value groups, negative values,
# duplicate values across groups, strings with NULLs.
ROWS = [
    (0, "a", 1.5, 10),
    (1, "b", -2.0, None),
    (2, "c", None, None),
    (3, "a", 4.0, -7),
    (4, None, 5.25, 3),
    (5, "b", 6.0, 10),
    (6, None, None, None),
    (7, "c", None, 0),
    (8, "a", 1.5, 10),
]


def _commit_all(table, rows, cid=1):
    commit_rows(table, rows, cid)


def _build(layout, schema=SCHEMA, rows=ROWS, name="t", table_id=1):
    backend = VolatileBackend()
    table = Table.create(table_id, name, schema, backend)
    if layout == "delta_only":
        _commit_all(table, rows)
    elif layout == "merged":
        _commit_all(table, rows)
        table.main, table.delta = merge_table(table, backend)
    else:  # split: half in main, half in delta
        _commit_all(table, rows[: len(rows) // 2])
        table.main, table.delta = merge_table(table, backend)
        _commit_all(table, rows[len(rows) // 2 :])
    return table


@pytest.fixture(params=["delta_only", "merged", "split"])
def table(request):
    return _build(request.param)


ALL_AGGREGATES = [
    ("count", None),
    ("count", "score"),
    ("count", "grade"),
    ("count", "points"),
    ("sum", "score"),
    ("sum", "points"),
    ("avg", "score"),
    ("avg", "points"),
    ("min", "score"),
    ("min", "points"),
    ("min", "grade"),
    ("max", "score"),
    ("max", "points"),
    ("max", "grade"),
]


class TestVectorizedAggregate:
    @pytest.mark.parametrize("func,column", ALL_AGGREGATES)
    def test_ungrouped_matches_scalar(self, table, func, column):
        result = scan(table, snapshot_cid=10)
        assert aggregate(result, func, column) == aggregate_scalar(
            result, func, column
        )

    @pytest.mark.parametrize("func,column", ALL_AGGREGATES)
    @pytest.mark.parametrize("group_by", ["grade", "points", "id"])
    def test_grouped_matches_scalar(self, table, func, column, group_by):
        result = scan(table, snapshot_cid=10)
        vec = aggregate(result, func, column, group_by=group_by)
        assert vec == aggregate_scalar(result, func, column, group_by=group_by)

    def test_result_types_match_scalar(self, table):
        result = scan(table, snapshot_cid=10)
        for func, column in ALL_AGGREGATES:
            vec = aggregate(result, func, column)
            sca = aggregate_scalar(result, func, column)
            assert type(vec) is type(sca), (func, column)

    def test_empty_result(self, table):
        result = scan(table, snapshot_cid=10, predicate=Eq("id", -999))
        for func, column in ALL_AGGREGATES:
            assert aggregate(result, func, column) == aggregate_scalar(
                result, func, column
            )
            assert aggregate(
                result, func, column, group_by="grade"
            ) == aggregate_scalar(result, func, column, group_by="grade")

    def test_all_null_group_appears_with_none(self, table):
        result = scan(table, snapshot_cid=10)
        groups = aggregate(result, "min", "score", group_by="grade")
        assert groups["c"] is None  # both 'c' rows have NULL score
        sums = aggregate(result, "sum", "score", group_by="grade")
        assert sums["c"] is None

    def test_null_group_key(self, table):
        result = scan(table, snapshot_cid=10)
        groups = aggregate(result, "sum", "score", group_by="grade")
        assert groups[None] == 5.25

    def test_sum_string_raises(self, table):
        result = scan(table, snapshot_cid=10)
        with pytest.raises(TypeError):
            aggregate(result, "sum", "grade")
        with pytest.raises(TypeError):
            aggregate(result, "avg", "grade", group_by="points")

    def test_unknown_aggregate_rejected(self, table):
        result = scan(table, snapshot_cid=10)
        with pytest.raises(ValueError):
            aggregate(result, "median", "score")
        with pytest.raises(ValueError):
            aggregate(result, "sum")  # needs a column

    def test_filtered_matches_scalar(self, table):
        result = scan(table, snapshot_cid=10, predicate=Gt("id", 2))
        for group_by in (None, "grade"):
            assert aggregate(
                result, "sum", "score", group_by=group_by
            ) == aggregate_scalar(result, "sum", "score", group_by=group_by)

    def test_partials_merge_matches_whole(self, table):
        """Partials of two disjoint scans, folded state by state, give the
        full answer: the law a scan over main and delta relies on."""
        low = scan(table, snapshot_cid=10, predicate=In("id", range(0, 5)))
        high = scan(table, snapshot_cid=10, predicate=In("id", range(5, 20)))
        whole = scan(table, snapshot_cid=10)
        for func, column in ALL_AGGREGATES:
            for group_by in (None, "grade"):
                merged = aggregate_partials(low, func, column, group_by)
                high_states = aggregate_partials(high, func, column, group_by)
                for key, state in high_states.items():
                    _merge_state(merged, key, func, state)
                assert finalize_partials(
                    func, merged, group_by is not None
                ) == aggregate_scalar(whole, func, column, group_by), (
                    func,
                    column,
                    group_by,
                )


SUM_SCHEMA = Schema.of(g=DataType.INT64, i=DataType.INT64, f=DataType.FLOAT64)


def _bulk_table(layout, columns, end=None):
    """A ``SUM_SCHEMA`` table of committed rows given column-major,
    loaded in one batch; ``end`` cids, when given, delete rows."""
    backend = VolatileBackend()
    table = Table.create(1, "s", SUM_SCHEMA, backend)
    n = len(columns[0])
    begin = np.ones(n, dtype=np.uint64)
    if end is None:
        end = np.full(n, np.iinfo(np.uint64).max, dtype=np.uint64)
    half = n // 2 if layout == "split" else n
    delta = table.delta
    delta.load_encoded(
        delta.encode_columns([c[:half] for c in columns]), begin[:half], end[:half]
    )
    if layout != "delta_only":
        table.main, table.delta = merge_table(table, backend)
        delta = table.delta
        delta.load_encoded(
            delta.encode_columns([c[half:] for c in columns]),
            begin[half:],
            end[half:],
        )
    return table


@pytest.mark.parametrize("layout", ["delta_only", "merged", "split"])
class TestSumKernels:
    def test_int64_grouped_sum_is_exact_past_2_53(self, layout):
        # Float weights would round 2**53 + 1 to 2**53: INT64 must stay
        # on exact integer adds, like python's ``sum``.
        big = [2**53 + 1, 2**53 + 3, 1, -(2**53) - 1, 2**53 + 1, 3]
        groups = [0, 0, 0, 1, 1, 1]
        table = _bulk_table(layout, [groups, big, [0.0] * 6])
        result = scan(table, snapshot_cid=10)
        want = {0: sum(big[:3]), 1: sum(big[3:])}
        assert aggregate(result, "sum", "i", group_by="g") == want
        assert aggregate(result, "sum", "i") == sum(big)
        assert aggregate_scalar(result, "sum", "i", group_by="g") == want

    @pytest.mark.parametrize(
        "big",
        [[2**62, 2**62, 2**63 - 1, 1], [-(2**63), -(2**63), -(2**63), 5]],
        ids=["above", "below"],
    )
    def test_int64_sums_do_not_wrap_past_2_63(self, layout, big):
        # Each group's sum, each partition's in a split, and the total
        # leave int64: the answer is python's exact sum, as
        # aggregate_scalar's.
        groups = [0, 0, 1, 1]
        table = _bulk_table(layout, [groups, big, [0.0] * 4])
        result = scan(table, snapshot_cid=10)
        want = {0: big[0] + big[1], 1: big[2] + big[3]}
        assert aggregate(result, "sum", "i", group_by="g") == want
        assert aggregate(result, "sum", "i") == sum(big)
        assert aggregate(result, "avg", "i", group_by="g") == {
            g: total / 2 for g, total in want.items()
        }
        assert aggregate(result, "avg", "i") == sum(big) / 4
        for group_by in (None, "g"):
            for func in ("sum", "avg"):
                assert aggregate(result, func, "i", group_by) == aggregate_scalar(
                    result, func, "i", group_by
                )

    @pytest.mark.parametrize("distinct", [41_000, 42_000])
    def test_grouped_sum_either_side_of_a_dense_cap(self, layout, distinct):
        # 50 keys plus the NULL slot: 51 x 41k cells is under 2**21, and
        # 51 x 42k over it. The sums must not depend on which side.
        rng = np.random.default_rng(distinct)
        amounts = rng.permutation(distinct).astype(np.float64) / 8 + 0.125
        keys = rng.integers(0, 50, distinct)
        table = _bulk_table(
            layout, [keys.tolist(), [0] * distinct, amounts.tolist()]
        )
        result = scan(table, snapshot_cid=10)
        got = aggregate(result, "sum", "f", group_by="g")
        want = aggregate_scalar(result, "sum", "f", group_by="g")
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12)

    def test_a_deleted_rows_value_takes_no_part(self, layout):
        # The deleted row's inf stays in the dictionary; no visible row
        # holds it, so no sum may turn NaN through it.
        end = np.full(4, np.iinfo(np.uint64).max, dtype=np.uint64)
        end[1] = 5
        table = _bulk_table(
            layout, [[0, 0, 1, 1], [1, 2, 3, 4], [1.0, np.inf, 2.0, 3.0]], end
        )
        result = scan(table, snapshot_cid=10)
        for group_by in (None, "g"):
            for func in ("sum", "avg"):
                assert aggregate(result, func, "f", group_by) == aggregate_scalar(
                    result, func, "f", group_by
                )


class TestColumnArray:
    def test_matches_column(self, table):
        result = scan(table, snapshot_cid=10)
        for name in SCHEMA.names:
            values, null_mask = result.column_array(name)
            expected = result.column(name)
            assert null_mask.tolist() == [v is None for v in expected]
            for got, want, is_null in zip(
                values.tolist(), expected, null_mask.tolist()
            ):
                if not is_null:
                    assert got == want

    def test_numeric_dtypes(self, table):
        result = scan(table, snapshot_cid=10)
        values, _ = result.column_array("points")
        assert values.dtype == np.int64
        values, _ = result.column_array("score")
        assert values.dtype == np.float64
        values, null_mask = result.column_array("grade")
        assert values.dtype == object
        # Object arrays carry None directly at NULL slots.
        assert all(
            v is None for v, n in zip(values.tolist(), null_mask.tolist()) if n
        )


RIGHT_SCHEMA = Schema.of(
    id=DataType.INT64, grade=DataType.STRING, label=DataType.STRING
)

RIGHT_ROWS = [
    (0, "a", "zero"),
    (2, "b", "two"),
    (2, "x", "dup"),
    (4, None, "four"),
    (9, "c", "nine"),
    (None, "a", "null-key"),
]


def _canon(rows):
    return sorted((sorted(r.items()) for r in rows), key=repr)


@pytest.fixture(params=["delta_only", "merged", "split"])
def right_table(request):
    return _build(
        request.param, RIGHT_SCHEMA, RIGHT_ROWS, name="r", table_id=2
    )


class TestVectorizedJoin:
    def test_inner_matches_scalar(self, table, right_table):
        left = scan(table, snapshot_cid=10)
        right = scan(right_table, snapshot_cid=10)
        assert _canon(hash_join(left, right, "id")) == _canon(
            hash_join_scalar(left, right, "id")
        )
        assert _canon(hash_join(right, left, "id")) == _canon(
            hash_join_scalar(right, left, "id")
        )

    def test_name_collision_prefixed(self, table, right_table):
        left = scan(table, snapshot_cid=10)
        right = scan(right_table, snapshot_cid=10)
        rows = hash_join(left, right, "id")
        # id 0: left grade 'a' == right grade 'a' -> no prefix;
        # id 2: left grade 'c' != right grades -> prefixed.
        by_id = {}
        for row in rows:
            by_id.setdefault(row["id"], []).append(row)
        assert all("r.grade" not in row for row in by_id[0])
        assert all(row["r.grade"] in ("b", "x") for row in by_id[2])
        assert _canon(rows) == _canon(hash_join_scalar(left, right, "id"))

    def test_column_selection(self, table, right_table):
        left = scan(table, snapshot_cid=10)
        right = scan(right_table, snapshot_cid=10)
        picked = hash_join(
            left, right, "id",
            left_columns=["id", "score"], right_columns=["id", "label"],
        )
        assert _canon(picked) == _canon(hash_join_scalar(
            left, right, "id",
            left_columns=["id", "score"], right_columns=["id", "label"],
        ))

    def test_cross_type_keys(self, table, right_table):
        """int64 keys joining a float64 column (1 == 1.0)."""
        left = scan(table, snapshot_cid=10)
        right = scan(right_table, snapshot_cid=10)
        assert _canon(hash_join(left, right, "points", "id")) == _canon(
            hash_join_scalar(left, right, "points", "id")
        )

    def test_late_materialization(self, table, right_table):
        left = scan(table, snapshot_cid=10)
        right = scan(right_table, snapshot_cid=10)
        lazy = join(left, right, "id")
        assert len(lazy) == len(hash_join_scalar(left, right, "id"))
        labels = right.gather_column("label", lazy.right_rows)
        assert len(labels) == len(lazy)
        assert _canon(lazy.rows()) == _canon(
            hash_join_scalar(left, right, "id")
        )

    def test_semi_and_anti_match_reference(self, table, right_table):
        left = scan(table, snapshot_cid=10)
        right = scan(right_table, snapshot_cid=10)
        keys = {v for v in right.column("id") if v is not None}
        assert _canon(semi_join(left, right, "id")) == _canon(
            [r for r in left.rows() if r["id"] in keys]
        )
        assert _canon(anti_join(left, right, "id")) == _canon(
            [r for r in left.rows() if r["id"] is not None and r["id"] not in keys]
        )

    def test_semi_join_ignores_invisible_dictionary_values(self, right_table):
        """A value in the right dictionary but filtered out of the scan
        must not count as a match."""
        left_table = _build("delta_only")
        left = scan(left_table, snapshot_cid=10)
        right = scan(
            right_table, snapshot_cid=10, predicate=Eq("label", "nine")
        )
        # Only id 9 is visible on the right; no left id matches it.
        assert semi_join(left, right, "id") == []
        anti = anti_join(left, right, "id")
        assert sorted(r["id"] for r in anti) == list(range(9))

    def test_empty_sides(self, table, right_table):
        left = scan(table, snapshot_cid=10)
        empty = scan(right_table, snapshot_cid=10, predicate=Eq("id", -1))
        assert hash_join(left, empty, "id") == []
        assert hash_join(empty, left, "id") == []
        assert semi_join(left, empty, "id") == []
        assert len(anti_join(left, empty, "id")) == len(
            [r for r in left.rows() if r["id"] is not None]
        )


class TestPredicateSatellites:
    def test_in_eval_main_matches_delta_semantics(self):
        table = _build("merged")
        values = [0, 3, 4, 99]
        result = scan(table, snapshot_cid=10, predicate=In("id", values))
        assert sorted(result.column("id")) == [0, 3, 4]

    def test_in_eval_main_empty_and_single(self):
        table = _build("merged")
        assert scan(table, snapshot_cid=10, predicate=In("id", [99])).count == 0
        single = scan(table, snapshot_cid=10, predicate=In("id", [5]))
        assert single.column("id") == [5]

    def test_delta_predicate_tracks_dictionary_growth(self):
        table = _build("delta_only")
        predicate = Eq("grade", "z")
        assert scan(table, snapshot_cid=10, predicate=predicate).count == 0
        # Grow the delta dictionary with the now-matching value; the
        # same predicate object must find it (it holds no state that
        # could be stale).
        _commit_all(table, [(100, "z", 1.0, 1)], cid=2)
        result = scan(table, snapshot_cid=10, predicate=predicate)
        assert result.column("id") == [100]
        # And repeated evaluation stays correct.
        again = scan(table, snapshot_cid=10, predicate=predicate)
        assert again.column("id") == [100]

    def test_delta_predicate_answer_survives_merge(self):
        backend = VolatileBackend()
        table = Table.create(7, "m", SCHEMA, backend)
        _commit_all(table, ROWS)
        predicate = In("grade", ["a", "c"])
        before = sorted(
            scan(table, snapshot_cid=10, predicate=predicate).column("id")
        )
        table.main, table.delta = merge_table(table, backend)
        # A fresh main and a fresh delta dictionary: the same predicate
        # object gives the same answer against them.
        after = sorted(
            scan(table, snapshot_cid=10, predicate=predicate).column("id")
        )
        assert before == after == [0, 2, 3, 7, 8]


class _ModelRows:
    """Row dicts behind the ``column``/``__len__`` shape that
    ``aggregate_scalar`` reads."""

    def __init__(self, rows):
        self.rows = list(rows)

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        return [row[name] for row in self.rows]


ENGINE_SCHEMA = {
    "id": DataType.INT64,
    "grade": DataType.STRING,
    "score": DataType.FLOAT64,
    "points": DataType.INT64,
}


def _engine_rows():
    rows = [
        {"id": i, "grade": g, "score": s, "points": p} for i, g, s, p in ROWS
    ]
    rows += [
        {"id": 100 + i, "grade": "d", "score": float(i), "points": i}
        for i in range(20)
    ]
    return rows


@pytest.fixture(scope="module", params=["nvm", "log"])
def recovered(request, tmp_path_factory):
    """An engine reopened after a crash, with its dict model. Before the
    crash the table spanned a merged main and a delta, and both held an
    updated and a deleted row."""
    mode = DurabilityMode(request.param)
    path = str(tmp_path_factory.mktemp(f"agg-{mode.value}") / "db")
    config = make_config(mode)
    rows = _engine_rows()
    db = Database(path, config)
    db.create_table("t", ENGINE_SCHEMA)
    db.insert_many("t", rows[: len(ROWS)])
    db.merge("t")
    db.insert_many("t", rows[len(ROWS) :])
    model = {row["id"]: dict(row) for row in rows}
    with db.begin() as txn:
        for row_id, changes in ((3, {"points": 99}), (105, {"score": None})):
            (ref,) = txn.query("t", Eq("id", row_id)).refs()
            txn.update("t", ref, changes)
            model[row_id].update(changes)
        for row_id in (5, 110):
            (ref,) = txn.query("t", Eq("id", row_id)).refs()
            txn.delete("t", ref)
            del model[row_id]
    db.crash(seed=7)
    db = Database(path, config)
    yield db, _ModelRows(model.values())
    db.close()


class TestRecoveredEngineAggregate:
    """The kernels over an engine's own scan result, after recovery, give
    what row-at-a-time folding of a dict model gives."""

    def test_recovered_rows_match_the_model(self, recovered):
        db, model = recovered
        result = db.query("t")
        got = sorted(zip(*(result.column(c) for c in ENGINE_SCHEMA)))
        want = sorted(zip(*(model.column(c) for c in ENGINE_SCHEMA)))
        assert got == want
        assert db.verify() == []

    @pytest.mark.parametrize("func,column", ALL_AGGREGATES)
    @pytest.mark.parametrize("group_by", [None, "grade"])
    def test_kernels_match_the_model(self, recovered, func, column, group_by):
        db, model = recovered
        assert aggregate(
            db.query("t"), func, column, group_by=group_by
        ) == aggregate_scalar(model, func, column, group_by=group_by)


# ----------------------------------------------------------------------
# Join kernels against the scalar reference, key edge cases included
# ----------------------------------------------------------------------

_KEYS = {
    DataType.INT64: [0, 1, -1, 7, 2**53, 2**53 + 1, 2**63 - 1, -(2**63)],
    DataType.FLOAT64: [
        0.0, -0.0, 1.0, -1.0, 7.0, math.nan, math.inf,
        2.0**53, 2.0**53 + 2, 2.0**63, -(2.0**63),
    ],
    DataType.STRING: ["", "a", "b", "ab", "\u00e9"],
}
_KEY_TYPES = [
    (DataType.INT64, DataType.INT64),
    (DataType.FLOAT64, DataType.FLOAT64),
    (DataType.INT64, DataType.FLOAT64),
    (DataType.FLOAT64, DataType.INT64),
    (DataType.STRING, DataType.STRING),
]
_LAYOUTS = st.sampled_from(["delta_only", "merged", "split"])


def _multiset(rows):
    """Rows as a sorted list of their ``(key, value)`` sequences: equal
    multisets of rows, each with the same key order."""
    return sorted(repr(list(row.items())) for row in rows)


def _key_rows(dtype):
    """Rows ``(key, v)``, the keys from a few of ``dtype``'s edge keys so
    that they meet often; ``v`` collides by name with the other side's,
    equal or not by value."""
    pool = st.lists(st.sampled_from(_KEYS[dtype]), min_size=1, max_size=4)
    return pool.flatmap(
        lambda keys: st.lists(
            st.tuples(st.none() | st.sampled_from(keys), st.integers(0, 2)),
            max_size=12,
        )
    )


_JOIN_CASE = st.sampled_from(_KEY_TYPES).flatmap(
    lambda types: st.tuples(
        st.just(types), _key_rows(types[0]), _key_rows(types[1]), _LAYOUTS, _LAYOUTS
    )
)
_F, _I = DataType.FLOAT64, DataType.INT64


@settings(max_examples=150, deadline=None)
@given(case=_JOIN_CASE)
@example(case=((_F, _F), [(math.nan, 0), (-0.0, 1)], [(math.nan, 0), (0.0, 0)],
               "split", "merged"))
@example(case=((_I, _F), [(2**53 + 1, 0), (2**53, 1)], [(2.0**53, 1), (None, 0)],
               "merged", "delta_only"))
def test_joins_equal_the_scalar_join(case):
    """NULL never joins, NaN joins nothing, ``-0.0 == 0.0``, an int and
    a float key match only when exactly equal, and a colliding right
    column keeps its prefixed key only where the values differ."""
    (l_type, r_type), l_rows, r_rows, l_layout, r_layout = case
    l_schema = Schema.of(id=DataType.INT64, k=l_type, v=DataType.INT64)
    r_schema = Schema.of(k=r_type, v=DataType.INT64, w=DataType.STRING)
    l_rows = [(i, k, v) for i, (k, v) in enumerate(l_rows)]
    r_rows = [(k, v, f"w{v}") for k, v in r_rows]
    left = scan(_build(l_layout, l_schema, l_rows, "l", 1), snapshot_cid=10)
    right = scan(_build(r_layout, r_schema, r_rows, "r", 2), snapshot_cid=10)
    want = hash_join_scalar(left, right, "k")
    assert _multiset(hash_join(left, right, "k")) == _multiset(want)
    matched = {row["id"] for row in want}
    assert _multiset(semi_join(left, right, "k")) == _multiset(
        row for row in left.rows() if row["id"] in matched
    )
    assert _multiset(anti_join(left, right, "k")) == _multiset(
        row
        for row in left.rows()
        if row["k"] is not None and row["id"] not in matched
    )
