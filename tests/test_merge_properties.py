"""Property: merging never changes what any future snapshot can see."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.storage.backend import VolatileBackend
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.query.scan import scan

from tests.conftest import commit_rows, merge_table

SCHEMA = Schema.of(k=DataType.INT64, s=DataType.STRING, f=DataType.FLOAT64)

# NaN, the infinities and both zeros, often enough to meet each other.
_floats = st.one_of(
    st.none(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.5]),
)

# Each row: (key, string-or-None, float-or-None, begin_cid, end_cid-or-None)
_rows = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.one_of(st.none(), st.text(max_size=4)),
        _floats,
        st.integers(1, 8),
        st.one_of(st.none(), st.integers(1, 8)),
    ),
    max_size=30,
)


def _build(rows, backend=None, table=None):
    """Commit ``rows`` into ``table``, a new one when not given."""
    if table is None:
        backend = VolatileBackend()
        table = Table.create(1, "t", SCHEMA, backend)
    for key, text, number, begin, end in rows:
        if end is not None and end < begin:
            begin, end = end, begin
        (ref,) = commit_rows(table, [[key, text, number]], begin)
        if end is not None:
            mvcc, idx = table.mvcc_for(ref)
            mvcc.set_end(idx, end)
    return backend, table


def _same_value(f):
    """A float as a merge keeps it: NaN is NaN and -0.0 is 0.0 (a
    dictionary holds one of the two zeros)."""
    if f is None:
        return None
    return "nan" if f != f else f + 0.0


def _visible_multiset(table, snapshot):
    result = scan(table, snapshot_cid=snapshot)
    return sorted(
        zip(
            result.column("k"),
            result.column("s"),
            map(_same_value, result.column("f")),
        ),
        key=repr,
    )


@given(rows=_rows, merge_twice=st.booleans())
@settings(max_examples=60, deadline=None)
def test_merge_preserves_future_snapshots(rows, merge_twice):
    backend, table = _build(rows)
    # Snapshots at/after the quiesce horizon (max cid used = 8) must see
    # the same rows before and after the merge. (Rows invalidated before
    # the horizon are gone for every such snapshot, so dropping them is
    # invisible; historical snapshots < 8 are intentionally not preserved
    # by the merge, as in Hyrise.)
    horizon = 8
    before = {s: _visible_multiset(table, s) for s in (horizon, horizon + 5)}
    table.main, table.delta = merge_table(table, backend)
    if merge_twice:
        table.main, table.delta = merge_table(table, backend)
    for snapshot, expected in before.items():
        assert _visible_multiset(table, snapshot) == expected


def _survivor_domain(rows, ci, dtype):
    """``np.unique`` of the non-NULL values of the rows a quiesced merge
    keeps (the never-deleted ones)."""
    values = [row[ci] for row in rows if row[4] is None and row[ci] is not None]
    return np.unique(np.array(values, dtype=dtype))


def _check_dictionaries(table, rows):
    for ci, (col, dtype) in enumerate(
        zip(table.main.columns, (np.int64, object, np.float64))
    ):
        values = col.dictionary.values_array()
        want = _survivor_domain(rows, ci, dtype)
        # Equal to numpy's unique (NaN last and once, one zero) ...
        np.testing.assert_array_equal(values, want)
        assert values.dtype == want.dtype
        # ... so strictly ordered: no repeat, and NaN only last.
        nan_last = values.size and values[-1] != values[-1]
        ordered = (values[:-1] if nan_last else values).tolist()
        assert all(a < b for a, b in zip(ordered, ordered[1:]))
        codes = col.codes()
        if codes.size:
            assert int(codes.max()) <= col.null_code
    # Delta is fresh and empty.
    assert table.delta.row_count == 0


@given(first=_rows, second=_rows)
@settings(max_examples=60, deadline=None)
def test_merge_dictionary_invariants(first, second):
    backend, table = _build(first)
    table.main, table.delta = merge_table(table, backend)  # a first merge
    _check_dictionaries(table, first)
    _build(second, backend, table)
    table.main, table.delta = merge_table(table, backend)  # into a main
    _check_dictionaries(table, first + second)
