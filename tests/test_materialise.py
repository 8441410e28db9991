"""O(result) materialisation: a positional gather equals slicing the whole.

The read path decodes the rows a result names straight from the
persistent image (``take`` on both vector kinds, positional unpack of
bit-packed main words, per-position dictionary decode). Every one of
those is checked here against the whole-column reference it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.query.join import hash_join
from repro.query.predicate import Between, Eq
from repro.query.scan import ScanResult
from repro.storage import bitpack
from repro.storage.backend import NvmBackend, VolatileBackend
from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import SMALL_DECODE, SortedDictionary
from repro.storage.main import MainColumn, MainPartition
from repro.storage.mvcc import INFINITY_CID
from repro.storage.schema import Schema
from repro.storage.types import DataType

from tests.conftest import make_config, place_rows

_FIXTURE_OK = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(params=["volatile", "nvm"])
def backend(request, pool):
    if request.param == "volatile":
        return VolatileBackend()
    return NvmBackend(pool)


# ----------------------------------------------------------------------
# Vector.take
# ----------------------------------------------------------------------


@given(
    values=st.lists(st.integers(-(2**40), 2**40), max_size=120),
    chunk=st.integers(1, 16),
    data=st.data(),
)
@settings(max_examples=60, **_FIXTURE_OK)
def test_take_equals_indexing_the_copy(backend, values, chunk, data):
    vec = backend.make_vector(np.int64, chunk)
    if values:
        vec.extend(np.asarray(values, dtype=np.int64))
    n = len(values)
    # Unsorted, repeated, possibly empty; any spread over the chunks.
    idx = data.draw(st.lists(st.integers(0, n - 1), max_size=40)) if n else []
    got = vec.take(idx)
    assert got.dtype == vec.dtype
    np.testing.assert_array_equal(got, vec.to_numpy()[np.asarray(idx, dtype=np.intp)])
    for bad in ([n], [-1], [*idx, n]):
        with pytest.raises(IndexError):
            vec.take(bad)
    if n:
        # An owner's published length can be shorter than the vector.
        np.testing.assert_array_equal(vec.take([0], limit=1), [values[0]])
        with pytest.raises(IndexError):
            vec.take([n - 1], limit=n - 1)
        # ... and is never extended by a limit beyond the vector.
        with pytest.raises(IndexError):
            vec.take([n], limit=n + 5)


def test_take_charges_what_it_gathers(pool):
    """PVector: one chunk, a few chunks, most of the vector."""
    vec = NvmBackend(pool).make_vector(np.uint32, 8)
    vec.extend(np.arange(1000, dtype=np.uint32) * 3)
    ref = vec.to_numpy()
    stats = pool.stats
    for idx in ([5], [5, 900, 17, 900]):  # same chunk / scattered
        before = stats.bytes_read
        np.testing.assert_array_equal(vec.take(idx), ref[idx])
        assert stats.bytes_read - before == 4 * len(idx)
    # A bulk request reads like every other bulk read: the published
    # prefix was charged by the first to_numpy, so nothing more now.
    before = stats.bytes_read
    everything = np.arange(1000)[::-1]
    np.testing.assert_array_equal(vec.take(everything), ref[everything])
    assert stats.bytes_read == before


# ----------------------------------------------------------------------
# Positional unpack of bit-packed main columns
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bits", range(1, 33))
def test_unpack_at_equals_unpack(bits):
    rng = np.random.default_rng(bits)
    count = 300
    codes = rng.integers(0, 1 << bits, size=count, dtype=np.uint64).astype(np.uint32)
    codes[:2] = [(1 << bits) - 1, 0]
    words = bitpack.pack(codes, bits)
    full = bitpack.unpack(words, bits, count)
    np.testing.assert_array_equal(full, codes)
    rows = rng.integers(0, count, size=80)  # unsorted, repeated
    np.testing.assert_array_equal(
        bitpack.unpack_at(words.__getitem__, bits, rows), full[rows]
    )
    # Every code whose bits cross a word boundary, asked for on its own.
    straddlers = np.asarray(
        [r for r in range(count) if (r * bits) % 64 + bits > 64], dtype=np.int64
    )
    assert straddlers.size or 64 % bits == 0
    np.testing.assert_array_equal(
        bitpack.unpack_at(words.__getitem__, bits, straddlers), codes[straddlers]
    )
    assert bitpack.unpack_at(words.__getitem__, bits, []).size == 0


SCHEMA = Schema.of(id=DataType.INT64, name=DataType.STRING, score=DataType.FLOAT64)


def _reopened(main: MainPartition) -> MainPartition:
    """``main`` as an attach sees it: the same words, nothing unpacked
    (a merge's build hands each column the codes it packed)."""
    columns = [
        MainColumn(c.dictionary, c.words, c.bits, main.row_count)
        for c in main.columns
    ]
    return MainPartition(main.schema, columns, main.mvcc, main.row_count)


def test_main_column_gathers_before_and_after_unpacking(backend):
    n = 7000
    names = [f"n{i % 11}" for i in range(n)]
    distinct = sorted(set(names))
    dictionaries = [
        SortedDictionary.build(DataType.INT64, backend, list(range(n))),
        SortedDictionary.build(DataType.STRING, backend, distinct),
        SortedDictionary.build(DataType.FLOAT64, backend, [0.5, 1.5]),
    ]
    codes = [
        np.arange(n, dtype=np.uint32)[::-1].copy(),
        np.asarray([distinct.index(v) for v in names], dtype=np.uint32),
        np.asarray([i % 3 for i in range(n)], dtype=np.uint32),  # 2 = NULL
    ]
    cids = np.ones(n, dtype=np.uint64)
    main = _reopened(
        MainPartition.build(
            SCHEMA, backend, dictionaries, codes, cids, cids * INFINITY_CID
        )
    )
    rows = np.asarray([n - 1, 0, 7, 7, 64, 128])
    with pytest.raises(IndexError):
        main.decode_column(0, np.asarray([n]))
    cold = [main.decode_column(c, rows) for c in range(3)]
    cold_arrays = [main.column_array(c, rows) for c in range(3)]
    # Three small requests: each answered from the packed words.
    assert all(column._codes_cache is None for column in main.columns)
    # Together they cost about one full unpack, so the next one unpacks
    # the column and gathers from it (as any large request does).
    assert main.decode_column(0, rows) == cold[0]
    assert main.columns[0]._codes_cache is not None
    assert main.decode_column(1, np.arange(n)) == names
    full = [main.decode_column(c) for c in range(3)]
    assert full[0] == list(range(n - 1, -1, -1))
    assert full[1] == names
    assert full[2] == [[0.5, 1.5, None][i % 3] for i in range(n)]
    for c in range(3):
        assert cold[c] == [full[c][r] for r in rows.tolist()]
        assert main.decode_column(c, rows) == cold[c]
        values, nulls = main.column_array(c, rows)
        np.testing.assert_array_equal(nulls, cold_arrays[c][1])
        np.testing.assert_array_equal(values[~nulls], cold_arrays[c][0][~nulls])
        assert [None if m else v for v, m in zip(values.tolist(), nulls)] == cold[c]


@pytest.mark.parametrize(
    "mode", [DurabilityMode.LOG, DurabilityMode.NVM], ids=["volatile", "nvm"]
)
def test_a_merged_main_is_born_unpacked(tmp_path, mode):
    db = Database(str(tmp_path), make_config(mode))
    db.create_table("t", {"id": DataType.INT64, "grp": DataType.STRING})
    rows = [{"id": i, "grp": f"g{i % 13}"} for i in range(3000)]
    db.insert_many("t", rows)
    db.merge("t")
    main = db.table("t").main
    assert all(c._codes_cache is not None for c in main.columns)
    for column in main.columns:
        np.testing.assert_array_equal(
            column.codes(),
            bitpack.unpack(column.words.view(), column.bits, main.row_count),
        )
    db = db.restart()
    assert all(c._codes_cache is None for c in db.table("t").main.columns)
    assert db.query("t").rows() == rows
    db.close()


def test_positional_gathers_are_charged_by_rows(backend):
    """A reopened column answers one-row gathers from its words for
    about ``n / 2048`` calls; gathers of ``n / 10`` rows add up to a
    full unpack by the tenth call."""
    n = 100_000
    dictionary = SortedDictionary.build(DataType.INT64, backend, list(range(n)))
    codes = np.arange(n, dtype=np.uint32)[::-1].copy()
    cids = np.ones(n, dtype=np.uint64)
    schema = Schema.of(a=DataType.INT64)

    def calls_until_unpacked(size: int) -> int:
        main = _reopened(
            MainPartition.build(
                schema, backend, [dictionary], [codes], cids, cids * INFINITY_CID
            )
        )
        column = main.columns[0]
        rng = np.random.default_rng(size)
        for call in range(1, n):
            rows = rng.integers(0, n, size)
            np.testing.assert_array_equal(column.codes_at(rows), codes[rows])
            if column._codes_cache is not None:
                return call
        raise AssertionError("never unpacked")

    assert calls_until_unpacked(1) == -(-n // 2048)
    assert calls_until_unpacked(n // 10) == 10


# ----------------------------------------------------------------------
# Delta decode with and without positions
# ----------------------------------------------------------------------

_ROW = st.tuples(
    st.none() | st.integers(-(2**62), 2**62),
    st.none() | st.text(max_size=5),
    st.none() | st.floats(allow_nan=False),
)
_ALL_NULL_NAME = st.tuples(
    st.none() | st.integers(0, 5), st.none(), st.none() | st.floats(-1, 1)
)


@given(rows=st.lists(_ROW, max_size=40) | st.lists(_ALL_NULL_NAME, max_size=12),
       data=st.data())
@settings(max_examples=60, **_FIXTURE_OK)
def test_delta_decode_with_and_without_positions_agree(backend, rows, data):
    delta = DeltaPartition.create(SCHEMA, backend, chunk_capacity=4)
    place_rows(delta, rows)
    n = len(rows)
    picked = data.draw(st.lists(st.integers(0, n - 1), max_size=20)) if n else []
    positions = np.asarray(picked, dtype=np.int64)
    for col in range(3):
        expected = [row[col] for row in rows]
        assert delta.decode_column(col) == expected
        assert delta.decode_column(col, positions) == [expected[i] for i in picked]
        values, nulls = delta.column_array(col)
        assert nulls.tolist() == [v is None for v in expected]
        some, some_nulls = delta.column_array(col, positions)
        np.testing.assert_array_equal(some_nulls, nulls[positions])
        keep = ~some_nulls
        np.testing.assert_array_equal(some[keep], values[positions][keep])
        assert some.dtype == values.dtype
        with pytest.raises(IndexError):
            delta.decode_column(col, np.asarray([n]))


def test_gather_rejects_a_crash_torn_tail(backend):
    """Code vectors run ahead of the begin vector when an insert tore;
    the published row count, not ``len(vector)``, bounds a gather."""
    delta = DeltaPartition.create(SCHEMA, backend)
    place_rows(delta, [[1, "a", 1.0], [2, "b", 2.0]])
    for vector in delta.code_vectors:
        vector.extend(np.asarray([0, 0, 0], dtype=np.uint32))
    assert delta.row_count == 2 < len(delta.code_vectors[0])
    torn = np.asarray([delta.row_count])
    for col in range(3):
        with pytest.raises(IndexError):
            delta.codes_at(col, torn)
        with pytest.raises(IndexError):
            delta.decode_column(col, torn)
        with pytest.raises(IndexError):
            delta.column_array(col, np.asarray([0, 4]))
    assert delta.decode_column(1, np.asarray([1, 0])) == ["b", "a"]


# ----------------------------------------------------------------------
# After a restart the first row costs what a row costs
# ----------------------------------------------------------------------


def _first_row_read_bytes(path: str, n: int) -> int:
    """Modelled NVM bytes ``rows()`` of one indexed hit reads, first
    thing after a reopen, on a table whose ``n`` rows all sit in the
    delta."""
    db = Database(path, make_config(DurabilityMode.NVM))
    db.create_table(
        "t", {"id": DataType.INT64, "grp": DataType.STRING, "qty": DataType.INT64}
    )
    db.create_index("t", "id")
    db.insert_many(
        "t", [{"id": i, "grp": f"g{i % 7}", "qty": i % 5} for i in range(n)]
    )
    db = db.restart()
    key = n // 2
    # The probe rebuilds the volatile lookup structures (O(delta), the
    # documented lazy cost); materialising its one row must not.
    result = db.query("t", Eq("id", key))
    stats = db._pool.stats
    before = stats.bytes_read
    assert result.rows() == [{"id": key, "grp": f"g{key % 7}", "qty": key % 5}]
    spent = stats.bytes_read - before
    db.close()
    return spent


def test_first_row_after_reopen_reads_the_same_for_any_delta_size(tmp_path):
    small = _first_row_read_bytes(str(tmp_path / "small"), 2_000)
    large = _first_row_read_bytes(str(tmp_path / "large"), 20_000)
    assert small == large
    assert small < 2_000  # a few codes, values and 7 short strings


def test_first_update_after_reopen_unpacks_no_main_column(tmp_path):
    """An update reads its old row as a one-row decode: positional,
    like a point read, not a full unpack of every main column."""
    db = Database(str(tmp_path), make_config(DurabilityMode.NVM))
    db.create_table("t", {"id": DataType.INT64, "grp": DataType.STRING})
    db.create_index("t", "id")
    db.insert_many("t", [{"id": i, "grp": f"g{i % 97}"} for i in range(20_000)])
    db.merge("t")
    db = db.restart()
    (ref,) = db.query("t", Eq("id", 1234)).refs()
    with db.begin() as txn:
        txn.update("t", ref, {"grp": "moved"})
    assert all(c._codes_cache is None for c in db.table("t").main.columns)
    assert db.query("t", Eq("id", 1234)).rows() == [{"id": 1234, "grp": "moved"}]
    db.close()


def test_first_point_read_after_reopen_decodes_its_own_strings(
    tmp_path, monkeypatch
):
    """A STRING main dictionary is decoded per value read until those
    reads add up to its size; then it is decoded whole, once."""
    n = 50_000
    db = Database(str(tmp_path), make_config(DurabilityMode.NVM))
    db.create_table(
        "t", {"id": DataType.INT64, "name": DataType.STRING, "grp": DataType.STRING}
    )
    db.create_index("t", "id")
    db.insert_many(
        "t", [{"id": i, "name": f"n{i:06d}", "grp": f"g{i % 97}"} for i in range(n)]
    )
    db.merge("t")
    db = db.restart()
    calls = []
    get_str = NvmBackend.get_str
    monkeypatch.setattr(
        NvmBackend, "get_str", lambda self, h: calls.append(h) or get_str(self, h)
    )
    result = db.query("t", Eq("id", 4321))
    calls.clear()
    assert result.rows() == [{"id": 4321, "name": "n004321", "grp": "g53"}]
    assert len(calls) <= 2  # one per STRING column, not one per entry
    name, grp = (c.dictionary for c in db.table("t").main.columns[1:])
    for key in range(0, n, n // 100):
        assert db.query("t", Eq("id", key)).column("grp") == [f"g{key % 97}"]
    assert grp._array is not None and name._array is None
    db.close()


def test_string_key_join_after_reopen_decodes_what_it_holds(
    tmp_path, monkeypatch
):
    """A join decodes the key codes its rows hold, not the key's whole
    main dictionary: 20 probe rows against 200 build rows of a 50k-row
    STRING column read a few hundred blobs."""
    n = 50_000
    db = Database(str(tmp_path), make_config(DurabilityMode.NVM))
    db.create_table("t", {"id": DataType.INT64, "name": DataType.STRING})
    db.create_table("u", {"name": DataType.STRING, "qty": DataType.INT64})
    db.insert_many("t", [{"id": i, "name": f"n{i:06d}"} for i in range(n)])
    db.insert_many("u", [{"name": f"n{i * 7:06d}", "qty": i} for i in range(20)])
    db.merge("t")
    db.merge("u")
    db = db.restart()
    calls = []
    get_str = NvmBackend.get_str
    monkeypatch.setattr(
        NvmBackend, "get_str", lambda self, h: calls.append(h) or get_str(self, h)
    )
    rows = hash_join(db.query("u"), db.query("t", Between("id", 0, 199)), "name")
    assert sorted(row["qty"] for row in rows) == list(range(20))
    assert all(row["name"] == f"n{row['id']:06d}" for row in rows)
    assert len(calls) < 1_000
    db.close()


# ----------------------------------------------------------------------
# Element-wise and array decode agree
# ----------------------------------------------------------------------

_COLUMNS = {
    "id": DataType.INT64,
    "name": DataType.STRING,
    "score": DataType.FLOAT64,
    "note": DataType.STRING,  # always NULL: empty dictionaries
    "none": DataType.INT64,
}


def _mixed_table(path: str, reopen: bool):
    """300 merged rows and 300 delta rows, a NULL in every third cell of
    ``id``/``name``/``score``; optionally reopened (undecoded main)."""
    db = Database(path, make_config(DurabilityMode.NVM))
    db.create_table("t", _COLUMNS)

    def row(i):
        null = i % 3 == 0
        return {
            "id": None if null else i,
            "name": None if null else f"s{i % 41}",
            "score": None if null else i / 4,
            "note": None,
            "none": None,
        }

    db.insert_many("t", [row(i) for i in range(300)])
    db.merge("t")
    db.insert_many("t", [row(i) for i in range(300, 600)])
    return db.restart() if reopen else db


def _via_arrays(result: ScanResult, name: str) -> list:
    values, nulls = result.column_array(name)
    return [None if null else v for v, null in zip(values.tolist(), nulls)]


@pytest.mark.parametrize("reopen", [False, True], ids=["live", "reopened"])
def test_small_results_decode_as_the_array_path_does(tmp_path, reopen):
    db = _mixed_table(str(tmp_path), reopen)
    table = db.table("t")
    rng = np.random.default_rng(7)
    sizes = [0, 1, SMALL_DECODE - 1, SMALL_DECODE, SMALL_DECODE + 1, 250]
    for size in sizes:
        picks = rng.choice(300, size, replace=False)
        mixed = np.sort(picks[: size // 2]), np.sort(picks[size // 2 :])
        none = np.empty(0, dtype=np.int64)
        for main_pos, delta_pos in (
            (np.sort(picks), none),
            (none, np.sort(picks)),
            mixed,
        ):
            result = ScanResult(table, main_pos, delta_pos)
            expected = {name: _via_arrays(result, name) for name in _COLUMNS}
            assert result.columns() == expected
            assert result.rows() == [
                dict(zip(expected, values)) for values in zip(*expected.values())
            ]
            assert [r["id"] for r in result.head(size // 3).rows()] == (
                expected["id"][: size // 3]
            )
        # Past the published delta rows the small path refuses, as the
        # array path does.
        if size:
            torn = np.arange(table.delta.row_count, table.delta.row_count + size)
            with pytest.raises(IndexError):
                ScanResult(table, none, torn).column("name")
    db.close()
