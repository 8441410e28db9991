"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.storage import bitpack
from repro.storage.backend import VolatileBackend
from repro.storage.dictionary import SortedDictionary, UnsortedDictionary
from repro.storage.mvcc import INFINITY_CID, MvccColumns
from repro.storage.schema import ColumnDef, Schema
from repro.storage.table import pack_rowref, unpack_rowref
from repro.storage.types import DataType
from repro.storage.vector import VolatileVector
from repro.wal.records import (
    CommitRecord,
    CreateIndexRecord,
    CreateTableRecord,
    InsertManyRecord,
    InsertRecord,
    InvalidateRecord,
    decode_record,
    encode_record,
)

# ----------------------------------------------------------------------
# Bit packing
# ----------------------------------------------------------------------


@given(
    bits=st.integers(1, 32),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_bitpack_roundtrip(bits, data):
    count = data.draw(st.integers(0, 300))
    codes = np.asarray(
        data.draw(
            st.lists(st.integers(0, 2**bits - 1), min_size=count, max_size=count)
        ),
        dtype=np.uint32,
    )
    words = bitpack.pack(codes, bits)
    assert (bitpack.unpack(words, bits, count) == codes).all()
    assert words.size == bitpack.packed_word_count(count, bits)


# ----------------------------------------------------------------------
# Row refs
# ----------------------------------------------------------------------


@given(is_delta=st.booleans(), index=st.integers(0, 2**62))
def test_rowref_roundtrip(is_delta, index):
    assert unpack_rowref(pack_rowref(is_delta, index)) == (is_delta, index)


# ----------------------------------------------------------------------
# Vectors behave like lists
# ----------------------------------------------------------------------


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(0, 2**63 - 1)),
            st.tuples(st.just("extend"), st.lists(st.integers(0, 2**63 - 1), max_size=20)),
            st.tuples(st.just("set"), st.integers(0, 10**6)),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_volatile_vector_model(ops):
    vec = VolatileVector(np.uint64)
    model: list[int] = []
    for op, arg in ops:
        if op == "append":
            vec.append(arg)
            model.append(arg)
        elif op == "extend":
            vec.extend(np.asarray(arg, dtype=np.uint64))
            model.extend(arg)
        elif model:
            index = arg % len(model)
            vec.set(index, arg)
            model[index] = arg
    assert list(vec.to_numpy()) == model
    assert len(vec) == len(model)


# ----------------------------------------------------------------------
# Dictionaries
# ----------------------------------------------------------------------


@given(values=st.lists(st.integers(-(2**62), 2**62), max_size=60))
@settings(max_examples=60, deadline=None)
def test_unsorted_dictionary_codes_bijective(values):
    d = UnsortedDictionary.create(DataType.INT64, VolatileBackend())
    codes = [d.code_for_insert(v) for v in values]
    # Same value -> same code; decode inverts encode.
    for v, c in zip(values, codes):
        assert d.code_of(v) == c
        assert d.value_of(c) == v
    assert len(d) == len(set(values))


@given(values=st.sets(st.text(max_size=12), max_size=40))
@settings(max_examples=50, deadline=None)
def test_sorted_dictionary_order_preserving(values):
    domain = sorted(values)
    d = SortedDictionary.build(DataType.STRING, VolatileBackend(), domain)
    for i, v in enumerate(domain):
        assert d.code_of(v) == i
        assert d.value_of(i) == v
    # lower/upper bounds agree with list bisection semantics.
    for probe in list(values)[:5]:
        lb, ub = d.lower_bound(probe), d.upper_bound(probe)
        assert 0 <= lb <= ub <= len(domain)
        assert ub - lb == (1 if probe in values else 0)


# ----------------------------------------------------------------------
# MVCC visibility
# ----------------------------------------------------------------------


@given(
    rows=st.lists(
        st.tuples(st.integers(1, 50), st.one_of(st.none(), st.integers(1, 50))),
        max_size=40,
    ),
    snapshot=st.integers(0, 60),
)
@settings(max_examples=60, deadline=None)
def test_mvcc_visibility_matches_definition(rows, snapshot):
    mvcc = MvccColumns.create(VolatileBackend())
    begins = []
    ends = []
    for begin, end in rows:
        if end is not None and end < begin:
            begin, end = end, begin
        begins.append(begin)
        ends.append(INFINITY_CID if end is None else end)
    if rows:
        mvcc.extend_committed(
            np.asarray(begins, dtype=np.uint64), np.asarray(ends, dtype=np.uint64)
        )
    mask = mvcc.visible_mask(snapshot)
    for i, (begin, end) in enumerate(zip(begins, ends)):
        assert mask[i] == (begin <= snapshot < end)


# ----------------------------------------------------------------------
# Schema serialisation
# ----------------------------------------------------------------------

_identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True)


@given(
    names=st.lists(_identifiers, min_size=1, max_size=10, unique=True),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_schema_roundtrip(names, data):
    dtypes = [
        data.draw(st.sampled_from(list(DataType))) for _ in names
    ]
    schema = Schema([ColumnDef(n, t) for n, t in zip(names, dtypes)])
    assert Schema.from_bytes(schema.to_bytes()) == schema


# ----------------------------------------------------------------------
# Log records
# ----------------------------------------------------------------------

_values = st.one_of(
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
)


# One column of a batch record holds one kind of value (or NULLs).
_column_values = st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1))


@given(
    record=st.one_of(
        st.builds(
            InsertRecord,
            st.integers(0, 2**63),
            st.integers(0, 2**32),
            st.lists(_values, max_size=8).map(tuple),
        ),
        st.builds(
            InsertManyRecord,
            st.integers(0, 2**32),
            st.integers(0, 2**63),
            st.integers(0, 5).flatmap(
                lambda n: st.lists(
                    st.lists(_column_values, min_size=n, max_size=n).map(tuple),
                    min_size=1,
                    max_size=4,
                ).map(tuple)
            ),
        ),
        st.builds(
            InvalidateRecord,
            st.integers(0, 2**32),
            st.integers(0, 2**64 - 1),
        ),
        st.builds(CommitRecord, st.integers(0, 2**63)),
        st.builds(
            CreateTableRecord,
            st.integers(0, 2**32),
            st.text(min_size=1, max_size=20),
            st.binary(max_size=50),
        ),
        st.builds(
            CreateIndexRecord, st.integers(0, 2**32), st.text(min_size=1, max_size=20)
        ),
    )
)
@settings(max_examples=80, deadline=None)
def test_log_record_roundtrip(record):
    frame = encode_record(record)
    decoded, end = decode_record(frame, 0)
    assert decoded == record
    assert end == len(frame)


@given(cut=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_truncated_record_never_misparses(cut):
    frame = encode_record(InsertRecord(1, 2, (7, "abc", None)))
    truncated = frame[: min(cut, len(frame) - 1)]
    assert decode_record(truncated, 0) is None
