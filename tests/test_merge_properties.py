"""Property: merging never changes what any future snapshot can see."""

from hypothesis import given, settings, strategies as st

from repro.storage.backend import VolatileBackend
from repro.storage.mvcc import NO_TID
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.query.scan import scan

from tests.conftest import merge_table

SCHEMA = Schema.of(k=DataType.INT64, s=DataType.STRING, f=DataType.FLOAT64)

# Each row: (key, string-or-None, float-or-None, begin_cid, end_cid-or-None)
_rows = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.one_of(st.none(), st.text(max_size=4)),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        st.integers(1, 8),
        st.one_of(st.none(), st.integers(1, 8)),
    ),
    max_size=30,
)


def _build(rows):
    backend = VolatileBackend()
    table = Table.create(1, "t", SCHEMA, backend)
    for key, text, number, begin, end in rows:
        if end is not None and end < begin:
            begin, end = end, begin
        ref = table.insert_uncommitted([key, text, number], tid=1)
        mvcc, idx = table.mvcc_for(ref)
        mvcc.set_begin(idx, begin)
        mvcc.set_tid(idx, NO_TID)
        if end is not None:
            mvcc.set_end(idx, end)
    return backend, table


def _visible_multiset(table, snapshot):
    result = scan(table, snapshot_cid=snapshot)
    return sorted(
        zip(result.column("k"), result.column("s"), result.column("f")),
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


@given(rows=_rows)
@settings(max_examples=40, deadline=None)
def test_merge_dictionary_invariants(rows):
    backend, table = _build(rows)
    table.main, table.delta = merge_table(table, backend)
    for col in table.main.columns:
        values = col.dictionary.values_list()
        # Sorted and distinct.
        assert values == sorted(set(values), key=lambda v: v)
        # Every code in range (checked by the shared validator too).
        codes = col.codes()
        if codes.size:
            assert int(codes.max()) <= col.null_code
    # Delta is fresh and empty.
    assert table.delta.row_count == 0
