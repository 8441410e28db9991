"""Unit tests for predicates, scans, and aggregation."""

import pytest

from repro.query.aggregate import aggregate
from repro.query.predicate import (
    And,
    Between,
    Eq,
    Ge,
    Gt,
    In,
    IsNull,
    Le,
    Lt,
    Ne,
    NotNull,
    Or,
)
from repro.query.scan import scan
from repro.storage.backend import VolatileBackend
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType

from tests.conftest import commit_rows, merge_table

SCHEMA = Schema.of(id=DataType.INT64, grade=DataType.STRING, score=DataType.FLOAT64)

ROWS = [
    (0, "a", 1.0),
    (1, "b", 2.0),
    (2, "c", None),
    (3, "a", 4.0),
    (4, None, 5.0),
    (5, "b", 6.0),
]


def _commit_all(table, rows, cid=1):
    commit_rows(table, rows, cid)


@pytest.fixture(params=["delta_only", "merged", "split"])
def table(request):
    """The same logical table in three physical layouts."""
    backend = VolatileBackend()
    table = Table.create(1, "t", SCHEMA, backend)
    if request.param == "delta_only":
        _commit_all(table, ROWS)
    elif request.param == "merged":
        _commit_all(table, ROWS)
        table.main, table.delta = merge_table(table, backend)
    else:  # half in main, half in delta
        _commit_all(table, ROWS[:3])
        table.main, table.delta = merge_table(table, backend)
        _commit_all(table, ROWS[3:])
    return table


def ids_matching(table, predicate):
    result = scan(table, snapshot_cid=10, predicate=predicate)
    return sorted(result.column("id"))


class TestPredicates:
    def test_eq(self, table):
        assert ids_matching(table, Eq("grade", "a")) == [0, 3]

    def test_eq_missing_value(self, table):
        assert ids_matching(table, Eq("grade", "zzz")) == []

    def test_ne_excludes_nulls(self, table):
        assert ids_matching(table, Ne("grade", "a")) == [1, 2, 5]

    def test_lt(self, table):
        assert ids_matching(table, Lt("score", 4.0)) == [0, 1]

    def test_le(self, table):
        assert ids_matching(table, Le("score", 4.0)) == [0, 1, 3]

    def test_gt(self, table):
        assert ids_matching(table, Gt("score", 4.0)) == [4, 5]

    def test_ge(self, table):
        assert ids_matching(table, Ge("score", 4.0)) == [3, 4, 5]

    def test_between(self, table):
        assert ids_matching(table, Between("id", 1, 3)) == [1, 2, 3]

    def test_between_empty_range(self, table):
        assert ids_matching(table, Between("id", 7, 3)) == []

    def test_in(self, table):
        assert ids_matching(table, In("grade", ["a", "c"])) == [0, 2, 3]

    def test_is_null(self, table):
        assert ids_matching(table, IsNull("score")) == [2]
        assert ids_matching(table, IsNull("grade")) == [4]

    def test_not_null(self, table):
        assert ids_matching(table, NotNull("score")) == [0, 1, 3, 4, 5]

    def test_string_range(self, table):
        assert ids_matching(table, Le("grade", "a")) == [0, 3]
        assert ids_matching(table, Gt("grade", "a")) == [1, 2, 5]

    def test_and(self, table):
        pred = And(Eq("grade", "a"), Gt("score", 2.0))
        assert ids_matching(table, pred) == [3]

    def test_or(self, table):
        pred = Or(Eq("grade", "c"), Eq("id", 5))
        assert ids_matching(table, pred) == [2, 5]

    def test_operator_sugar(self, table):
        assert ids_matching(table, Eq("grade", "a") & Gt("score", 2.0)) == [3]
        assert ids_matching(table, Eq("id", 0) | Eq("id", 5)) == [0, 5]

    def test_not(self, table):
        assert ids_matching(table, ~Eq("grade", "a")) == [1, 2, 4, 5]

    def test_unknown_column_raises(self, table):
        with pytest.raises(KeyError):
            ids_matching(table, Eq("nope", 1))

    def test_empty_and_or_rejected(self):
        with pytest.raises(ValueError):
            And()
        with pytest.raises(ValueError):
            Or()


class TestScan:
    def test_full_scan(self, table):
        result = scan(table, snapshot_cid=10)
        assert result.count == 6
        assert sorted(result.column("id")) == [0, 1, 2, 3, 4, 5]

    def test_snapshot_before_commit_sees_nothing(self, table):
        assert scan(table, snapshot_cid=0).count == 0

    def test_rows_materialisation(self, table):
        rows = scan(table, snapshot_cid=10, predicate=Eq("id", 1)).rows()
        assert rows == [{"id": 1, "grade": "b", "score": 2.0}]

    def test_columns_subset(self, table):
        result = scan(table, snapshot_cid=10, predicate=Eq("id", 2))
        assert result.columns(["grade", "score"]) == {"grade": ["c"], "score": [None]}

    def test_refs_resolve_back(self, table):
        result = scan(table, snapshot_cid=10, predicate=Eq("id", 3))
        (ref,) = result.refs()
        assert table.get_row_dict(ref)["id"] == 3

    def test_scan_needs_snapshot(self, table):
        with pytest.raises(ValueError):
            scan(table)

    def test_empty_result_rows(self, table):
        assert scan(table, snapshot_cid=10, predicate=Eq("id", 99)).rows() == []


class TestAggregate:
    def _result(self, table):
        return scan(table, snapshot_cid=10)

    def test_count_star(self, table):
        assert aggregate(self._result(table), "count") == 6

    def test_count_column_skips_nulls(self, table):
        assert aggregate(self._result(table), "count", "score") == 5

    def test_sum_min_max_avg(self, table):
        r = self._result(table)
        assert aggregate(r, "sum", "score") == 18.0
        assert aggregate(r, "min", "score") == 1.0
        assert aggregate(r, "max", "score") == 6.0
        assert aggregate(r, "avg", "score") == 3.6

    def test_group_by(self, table):
        r = self._result(table)
        groups = aggregate(r, "sum", "score", group_by="grade")
        assert groups["a"] == 5.0
        assert groups["b"] == 8.0
        assert groups["c"] is None  # only NULL scores in group c
        assert groups[None] == 5.0

    def test_group_by_count(self, table):
        counts = aggregate(self._result(table), "count", group_by="grade")
        assert counts == {"a": 2, "b": 2, "c": 1, None: 1}

    def test_aggregate_on_empty(self, table):
        r = scan(table, snapshot_cid=10, predicate=Eq("id", 99))
        assert aggregate(r, "count") == 0
        assert aggregate(r, "sum", "score") is None

    def test_unknown_aggregate_rejected(self, table):
        with pytest.raises(ValueError):
            aggregate(self._result(table), "median", "score")

    def test_sum_needs_column(self, table):
        with pytest.raises(ValueError):
            aggregate(self._result(table), "sum")
