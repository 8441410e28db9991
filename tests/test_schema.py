"""Unit tests for schemas and data types."""

from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.schema import ColumnDef, Schema, SchemaError
from repro.storage.types import DataType


class TestDataType:
    def test_int_validation(self):
        assert DataType.INT64.validate(5) == 5
        assert DataType.INT64.validate(None) is None
        with pytest.raises(TypeError):
            DataType.INT64.validate("5")
        with pytest.raises(TypeError):
            DataType.INT64.validate(True)  # bools are not ints here

    def test_float_validation_coerces_ints(self):
        assert DataType.FLOAT64.validate(5) == 5.0
        assert isinstance(DataType.FLOAT64.validate(5), float)
        with pytest.raises(TypeError):
            DataType.FLOAT64.validate("x")

    def test_string_validation(self):
        assert DataType.STRING.validate("abc") == "abc"
        with pytest.raises(TypeError):
            DataType.STRING.validate(1)

    def test_python_type(self):
        assert DataType.INT64.python_type is int
        assert DataType.STRING.python_type is str


class TestColumnDef:
    def test_invalid_names_rejected(self):
        for bad in ("", "1abc", "a b", "a-b"):
            with pytest.raises(ValueError):
                ColumnDef(bad, DataType.INT64)

    def test_valid_name(self):
        col = ColumnDef("order_id", DataType.INT64)
        assert col.name == "order_id"


class TestSchema:
    def test_of_constructor(self):
        schema = Schema.of(a=DataType.INT64, b=DataType.STRING)
        assert schema.names == ["a", "b"]
        assert len(schema) == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([ColumnDef("x", DataType.INT64), ColumnDef("x", DataType.STRING)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Schema([])

    def test_column_index(self):
        schema = Schema.of(a=DataType.INT64, b=DataType.STRING)
        assert schema.column_index("b") == 1
        with pytest.raises(KeyError):
            schema.column_index("zz")

    def test_validate_row_fills_nulls(self):
        schema = Schema.of(a=DataType.INT64, b=DataType.STRING)
        assert schema.validate_row({"a": 1}) == [1, None]

    def test_validate_row_rejects_unknown(self):
        schema = Schema.of(a=DataType.INT64)
        with pytest.raises(KeyError):
            schema.validate_row({"a": 1, "zz": 2})

    def test_validate_row_type_checks(self):
        schema = Schema.of(a=DataType.INT64)
        with pytest.raises(TypeError):
            schema.validate_row({"a": "not an int"})

    def test_serialisation_roundtrip(self):
        schema = Schema.of(
            id=DataType.INT64, name=DataType.STRING, score=DataType.FLOAT64
        )
        assert Schema.from_bytes(schema.to_bytes()) == schema

    def test_serialisation_unicode_names(self):
        schema = Schema([ColumnDef("naïve_col", DataType.STRING)])
        # Identifiers may be unicode in Python.
        assert Schema.from_bytes(schema.to_bytes()) == schema


def _validate_row_before(schema: Schema, row) -> list:
    """``Schema.validate_row`` as it stood before the per-schema checks
    were precomputed — the oracle: two sets per row, an Enum-dispatching
    ``validate`` per cell — plus the one rule added since: a row that is
    not a mapping is refused as such, with no other error first."""
    if not isinstance(row, Mapping):
        kind = type(row).__name__
        raise SchemaError(f"a row is a {{column: value}} dict, not {kind}")
    unknown = set(row) - set(schema._index)
    if unknown:
        raise KeyError(f"unknown columns {sorted(unknown)}")
    return [c.dtype.validate(row.get(c.name)) for c in schema.columns]


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Dict(dict):
    def get(self, key, default=None):
        return "overridden"


_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.builds(_Int, st.integers(-9, 9)),
    st.builds(_Float, st.floats(allow_nan=False, width=16)),
    st.builds(_Str, st.text(max_size=3)),
    st.binary(max_size=2),
    st.lists(st.integers(), max_size=2),
)
_keys = st.sampled_from(["id", "name", "score", "extra", "zzz", ""])
_rows = st.one_of(
    st.dictionaries(_keys, _values),
    st.dictionaries(st.one_of(_keys, st.integers(0, 3)), _values),
    st.builds(_Dict, st.dictionaries(_keys, _values)),
    st.lists(st.one_of(_keys, st.integers(0, 3)), max_size=4),
    st.tuples(_keys, _keys),
    st.none(),
    st.integers(),
    st.text(max_size=5),
)


class TestValidateRowFastPath:
    SCHEMA = Schema.of(
        id=DataType.INT64, name=DataType.STRING, score=DataType.FLOAT64
    )

    @staticmethod
    def _outcome(fn, *args):
        try:
            values = fn(*args)
        except Exception as exc:
            return type(exc), str(exc)
        # The type of each value is part of the answer: an int in a
        # FLOAT64 column comes back a float, a subclass as today.
        return [(type(v), v) for v in values]

    @settings(max_examples=600, deadline=None)
    @given(row=_rows)
    def test_same_values_and_same_errors_as_before(self, row):
        assert self._outcome(self.SCHEMA.validate_row, row) == self._outcome(
            _validate_row_before, self.SCHEMA, row
        )

    def test_exact_types_are_returned_as_they_are(self):
        row = {"id": 2**40, "name": "n" * 40, "score": 0.1 + 0.2}
        out = self.SCHEMA.validate_row(row)
        assert all(got is put for got, put in zip(out, row.values()))

    def test_bool_is_never_an_int(self):
        with pytest.raises(TypeError, match="expected int, got bool"):
            self.SCHEMA.validate_row({"id": True})
        with pytest.raises(TypeError, match="expected float, got bool"):
            self.SCHEMA.validate_row({"score": False})


_known_rows = st.fixed_dictionaries(
    {},
    optional={
        "id": st.none() | st.integers(-(2**70), 2**70),
        "name": st.none() | st.text(max_size=3),
        "score": st.none() | st.floats(allow_nan=False),
    },
)


class TestValidateColumns:
    """A batch validated by column is the row loop, transposed: the same
    values of the same types, or the same error from the same row."""

    SCHEMA = TestValidateRowFastPath.SCHEMA

    def _row_loop(self, rows):
        try:
            values = [_validate_row_before(self.SCHEMA, row) for row in rows]
        except Exception as exc:
            return type(exc), str(exc)
        columns = [[row[i] for row in values] for i in range(len(self.SCHEMA))]
        return [[(type(v), v) for v in column] for column in columns]

    def _by_column(self, rows):
        try:
            columns = self.SCHEMA.validate_columns(rows)
        except Exception as exc:
            return type(exc), str(exc)
        return [[(type(v), v) for v in column] for column in columns]

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(_known_rows, max_size=8)
        | st.lists(_known_rows | _rows, max_size=6)
    )
    def test_same_columns_and_same_errors_as_the_row_loop(self, rows):
        assert self._by_column(rows) == self._row_loop(rows)
