"""``INSERT_MANY`` by column: the client packs a batch's numeric columns,
the server answers a columns body exactly as it answers the rows.

Checked on the body the client builds, on what decoding it costs, on
hostile columns bodies, and by a property: a batch sent as a raw rows
frame and the same batch sent through :meth:`ReproClient.insert_many`
give the same status, the same message and the same table.
"""

from __future__ import annotations

import itertools
import struct
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import frame
from repro.server import protocol
from repro.server.client import ReproClient, ServerError
from repro.server.protocol import Op, ProtocolError, Status
from repro.server.server import ServerThread

HOST = "127.0.0.1"


def _body_sent(rows) -> dict:
    """The ``INSERT_MANY`` body ``ReproClient.insert_many`` builds."""
    client = object.__new__(ReproClient)
    sent = []
    client.call = lambda op, body, tenant=None: sent.append((op, body)) or {
        "count": 0
    }
    client.insert_many("t", rows)
    (op, body), = sent
    assert op is Op.INSERT_MANY
    return body


class TestTheClientsBody:
    def test_rows_sharing_their_keys_go_as_columns(self):
        rows = [{"id": i, "name": f"n{i}", "x": i / 2} for i in range(4)]
        body = _body_sent(rows)
        assert list(body) == ["table", "columns"]
        columns = body["columns"]
        assert list(columns) == ["id", "name", "x"]
        assert columns["id"] == array("q", [0, 1, 2, 3])
        assert columns["x"] == array("d", [0.0, 0.5, 1.0, 1.5])
        assert columns["name"] == ["n0", "n1", "n2", "n3"]

    @pytest.mark.parametrize(
        "column",
        [
            [1, None, 3],
            [1, True],
            [1, 2**63],
            [-(2**63) - 1],
            [1.5, 2],
            [1.5, None],
            ["a", 1],
        ],
        ids=["null", "bool", "past-int64", "below-int64", "mixed", "null-float", "str"],
    )
    def test_only_exact_int64_or_float_columns_pack(self, column):
        body = _body_sent([{"v": v} for v in column])
        assert type(body["columns"]["v"]) is list

    @pytest.mark.parametrize(
        "rows",
        [
            [{"a": 1}, {"a": 2, "b": 3}],
            [{"a": 1, "b": 2}, {"b": 3}],
            [{"a": 1}, ["a"]],
            [{"a": 1}, None],
        ],
        ids=["extra-key", "missing-key", "list-row", "none-row"],
    )
    def test_any_other_batch_goes_as_rows(self, rows):
        assert _body_sent(rows) == {"table": "t", "rows": rows}

    @pytest.mark.parametrize("rows", [[], [{}], [{}, {}]], ids=["empty", "one", "two"])
    def test_a_batch_without_keys_goes_as_rows(self, rows):
        """No column would carry how many rows there are."""
        assert _body_sent(rows) == {"table": "t", "rows": rows}


def test_decoding_a_bulk_body_costs_a_call_per_string(monkeypatch):
    """A 5,000-row (INT64, STRING, INT64) batch decodes in at most
    5,016 ``_decode`` calls: the numeric columns are one call each.
    As rows it took four a row."""
    rows = [{"id": i, "name": f"n{i % 97}", "qty": i * 3} for i in range(5000)]
    payload = protocol.pack_request(Op.INSERT_MANY, 1, "acme", _body_sent(rows))[
        frame.HEADER_BYTES :
    ]
    calls = []
    decode = protocol._decode

    def counted(*args):
        calls.append(1)
        return decode(*args)

    monkeypatch.setattr(protocol, "_decode", counted)
    body = protocol.unpack_request(payload).body
    assert len(calls) <= 5016
    assert body["columns"] == {
        name: [row[name] for row in rows] for name in ("id", "name", "qty")
    }


# ----------------------------------------------------------------------
# Over the wire
# ----------------------------------------------------------------------

SCHEMA = [("i", "int64"), ("f", "float64"), ("s", "string")]


@pytest.fixture(scope="module")
def tenant(tmp_path_factory):
    path = tmp_path_factory.mktemp("served") / "data"
    with ServerThread(str(path)) as served:
        with ReproClient(HOST, served.port) as client:
            client.create_tenant("acme")
            yield client.for_tenant("acme")


def _answer(fn, *args):
    """``fn``'s count, its status and message, or a client-side error."""
    try:
        return "ok", fn(*args)
    except ServerError as exc:
        return exc.status, exc.message
    except ProtocolError:
        return "client", ProtocolError


def _bits(value):
    return struct.pack("<d", value) if type(value) is float else value


def _table(view, name) -> list:
    return [
        {k: _bits(v) for k, v in row.items()} for row in view.query(name)
    ]


_NANS = [struct.unpack("<d", bytes.fromhex(h))[0] for h in (
    "010000000000f87f", "0000000000f8ffff", "efcdab8967f5ff7f"
)]
_INTS = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0])
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True), st.sampled_from(_NANS + [-0.0, 0.0])
)
_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(["𝄞", "😀 grin", ""]))
#: Mostly a value of the column's type; sometimes NULL, and now and then
#: one the column refuses or the wire cannot carry.
_ODD = st.one_of(
    st.booleans(), st.sampled_from([2**63, -(2**63) - 1, 2**70]), _TEXT, _FLOATS
)
VALUES = {
    "i": st.one_of(_INTS, _INTS, _INTS, st.none(), _ODD),
    "f": st.one_of(_FLOATS, _FLOATS, _INTS, st.none(), _ODD),
    "s": st.one_of(_TEXT, _TEXT, _TEXT, st.none(), _ODD),
    "yy": st.one_of(st.none(), _INTS, _TEXT),
    "zz": st.one_of(st.none(), _INTS, _TEXT),
}


@st.composite
def batches(draw):
    """Rows that mostly share one key set (missing columns and, now and
    then, unknown ones among them), with a row of its own keys
    sometimes."""
    keys = draw(
        st.lists(
            st.sampled_from(["i", "f", "s", "s", "i", "f", "yy", "zz"]),
            unique=True,
            max_size=5,
        )
    )
    own_keys = st.lists(st.sampled_from(list(VALUES)), unique=True)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        names = draw(own_keys) if draw(st.integers(0, 3)) == 0 else keys
        rows.append({name: draw(VALUES[name]) for name in names})
    return rows


_names = itertools.count()


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(rows=batches())
def test_rows_and_columns_answer_alike(tenant, rows):
    n = next(_names)
    by_rows, by_columns = f"rows{n}", f"columns{n}"
    for name in (by_rows, by_columns):
        tenant.create_table(name, SCHEMA)
    try:
        raw = _answer(
            lambda: tenant.call(Op.INSERT_MANY, {"table": by_rows, "rows": rows})[
                "count"
            ]
        )
        assert _answer(tenant.insert_many, by_columns, rows) == raw
        assert _table(tenant, by_columns) == _table(tenant, by_rows)
    finally:
        for name in (by_rows, by_columns):
            tenant.drop_table(name)


@pytest.mark.parametrize(
    "columns",
    [
        {"i": [1, 2], "s": ["a"]},
        {"i": [1, 2], "s": "ab"},
        {"i": 5},
        {"i": None},
        ["i", [1]],
        "columns",
        None,
    ],
    ids=[
        "unequal-lengths",
        "str-column",
        "int-column",
        "null-column",
        "list-of-columns",
        "str-columns",
        "null-columns",
    ],
)
def test_a_hostile_columns_body_is_a_bad_request(tenant, columns):
    tenant.create_table("hostile", SCHEMA)
    try:
        with pytest.raises(ServerError) as err:
            tenant.call(Op.INSERT_MANY, {"table": "hostile", "columns": columns})
        assert err.value.status is Status.BAD_REQUEST, err.value.message
        assert tenant.query("hostile") == []
    finally:
        tenant.drop_table("hostile")


def test_a_packed_column_lands_as_its_values(tenant):
    tenant.create_table("packed", SCHEMA)
    try:
        count = tenant.call(
            Op.INSERT_MANY,
            {
                "table": "packed",
                "columns": {
                    "i": array("q", [2**63 - 1, -(2**63)]),
                    "f": array("d", [-0.0, _NANS[2]]),
                },
            },
        )["count"]
        assert count == 2
        assert _table(tenant, "packed") == [
            {"i": 2**63 - 1, "f": _bits(-0.0), "s": None},
            {"i": -(2**63), "f": _bits(_NANS[2]), "s": None},
        ]
    finally:
        tenant.drop_table("packed")
