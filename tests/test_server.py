"""Server tests: sessions, ops, pipelining, ticks, admission.

These run a real asyncio server (:class:`ServerThread`) against real
sockets, but inside the test process — except the tick-under-SIGKILL
test at the end, which needs a genuine process boundary (the
multi-tenant durability oracle lives in ``tests/test_tenants.py``).
"""

from __future__ import annotations

import logging
import os
import shutil
import struct
import sys
import tempfile
import threading

import pytest

from repro.core import Database, DurabilityMode, EngineConfig
from repro.obs import get_registry
from repro.query.predicate import Between, Eq, Gt
from repro.server import protocol
from repro.server.client import Rejected, ReproClient, ServerError, wait_for_server
from repro.server.proc import free_port, spawn_server
from repro.server.protocol import Op, PROTOCOL_VERSION, Status
from repro.server.server import ServerConfig, ServerThread
from repro.server.tenants import tenant_dir
from repro.storage.delta import DeltaPartition
from repro.storage.main import MainPartition

from tests.conftest import tree, write_sharded_layout

HOST = "127.0.0.1"
SCHEMA = [("id", "int64"), ("name", "string"), ("qty", "int64")]


@pytest.fixture()
def served(tmp_path):
    with ServerThread(str(tmp_path / "data")) as thread:
        yield thread


@pytest.fixture()
def client(served):
    with ReproClient(HOST, served.port) as c:
        yield c


def seed_tenant(client, tenant="acme", rows=10, **layout):
    client.create_tenant(tenant, **layout)
    view = client.for_tenant(tenant)
    view.create_table("items", SCHEMA)
    view.insert_many(
        "items",
        [{"id": i, "name": f"n{i % 3}", "qty": i * 2} for i in range(rows)],
    )
    return view


# ----------------------------------------------------------------------
# Session protocol
# ----------------------------------------------------------------------


def test_ping_and_hello(served):
    with ReproClient(HOST, served.port) as client:
        assert client.ping()
        assert client.server_version == PROTOCOL_VERSION


def test_request_before_hello_rejected(served):
    with ReproClient(HOST, served.port, hello=False) as client:
        with pytest.raises(ServerError) as err:
            client.call(Op.PING, {})
        assert err.value.status is Status.NEED_HELLO


def test_wrong_version_hello_rejected(served):
    with ReproClient(HOST, served.port, hello=False) as client:
        with pytest.raises(ServerError) as err:
            client.call(Op.HELLO, {"version": PROTOCOL_VERSION + 1})
        assert err.value.status is Status.WRONG_VERSION


def test_garbage_frame_drops_connection(served):
    with ReproClient(HOST, served.port) as client:
        client._sock.sendall(b"\xff" * 64)
        with pytest.raises((ConnectionError, OSError)):
            client.call(Op.PING, {})


def test_a_deeply_nested_body_is_a_counted_protocol_error(served, capfd, caplog):
    """A 25 KB PING of 5,000 nested one-element lists drops only its own
    connection, as a protocol error: counted, with nothing logged or
    printed, while another connection keeps being served."""
    rejected = get_registry().counter("server_rejected_total", reason="protocol_error")
    before = rejected.value
    body = (bytes([7]) + struct.pack("<I", 1)) * 5000 + bytes([0])
    payload = bytes([Op.PING]) + struct.pack("<IH", 1, 0) + body
    with ReproClient(HOST, served.port) as other, ReproClient(HOST, served.port) as bad:
        bad._sock.sendall(protocol.encode_frame(payload))
        with pytest.raises((ConnectionError, OSError)):
            bad.call(Op.PING, {})
        assert other.ping()
    assert rejected.value == before + 1
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert capfd.readouterr().err == ""


def test_data_op_without_tenant_rejected(client):
    with pytest.raises(ServerError) as err:
        client.call(Op.TABLES, {})
    assert err.value.status is Status.BAD_REQUEST


def test_unknown_tenant_rejected(client):
    with pytest.raises(ServerError) as err:
        client.tables(tenant="nope")
    assert err.value.status is Status.NO_SUCH_TENANT


# ----------------------------------------------------------------------
# Data plane
# ----------------------------------------------------------------------


def test_ddl_insert_query_aggregate(client):
    view = seed_tenant(client)
    assert view.tables() == ["items"]
    assert view.query("items", Eq("id", 3)) == [{"id": 3, "name": "n0", "qty": 6}]
    assert view.query("items", Between("qty", 0, 6), columns=["id"]) == [
        {"id": 0},
        {"id": 1},
        {"id": 2},
        {"id": 3},
    ]
    full = view.query_full("items", Gt("id", 4), limit=2)
    assert full["count"] == 5
    assert len(full["rows"]) == 2
    assert view.aggregate("items", "count") == 10
    assert view.aggregate("items", "sum", column="qty") == sum(i * 2 for i in range(10))
    groups = view.aggregate("items", "count", group_by="name")
    assert groups == {"n0": 4, "n1": 3, "n2": 3}


def test_a_sum_past_int64_is_an_error_not_a_wrapped_number(client):
    client.create_tenant("acme")
    view = client.for_tenant("acme")
    view.create_table("t", [("g", "int64"), ("v", "int64")])
    view.insert_many("t", [{"g": 0, "v": 2**62}, {"g": 0, "v": 2**62}])
    for group_by in (None, "g"):
        with pytest.raises(ServerError) as failed:
            view.aggregate("t", "sum", column="v", group_by=group_by)
        assert failed.value.status is not Status.OK
        assert "int64" in failed.value.message
    assert view.aggregate("t", "avg", column="v") == 2.0**62


def test_query_limit_decodes_only_the_rows_it_returns(client, monkeypatch):
    view = seed_tenant(client, rows=10_000)
    decoded = []
    for part in (MainPartition, DeltaPartition):
        decode = part.decode_column

        def counted(self, col, rows=None, decode=decode):
            decoded.append(len(rows))
            return decode(self, col, rows)

        monkeypatch.setattr(part, "decode_column", counted)
    full = view.query_full("items", Gt("qty", -1), limit=1)
    assert full["count"] == 10_000 and len(full["rows"]) == 1
    assert max(decoded) <= 1
    assert len(view.query_full("items", Gt("id", 9_990), limit=-3)["rows"]) == 6


def test_insert_returns_position(client):
    view = seed_tenant(client, rows=0)
    ref = view.insert("items", {"id": 1, "name": "a", "qty": 2})
    assert ref == {"row": 0, "delta": True}


def test_index_and_stats(client):
    view = seed_tenant(client)
    view.create_index("items", "id")
    stats = view.stats()
    table = stats["tables"]["items"]
    assert table["main_rows"] + table["delta_rows"] == 10


def test_drop_table(client):
    view = seed_tenant(client)
    view.drop_table("items")
    assert view.tables() == []
    with pytest.raises(ServerError) as err:
        view.query("items")
    assert err.value.status is Status.NO_SUCH_TABLE


@pytest.mark.parametrize(
    "op,body",
    [
        (Op.CREATE_TENANT, {"name": "wide", "shards": 4}),
        (Op.CREATE_TENANT, {"name": "wide", "shards": 0}),
        (Op.CREATE_TENANT, {"name": "wide", "shards": "1"}),
        (
            Op.CREATE_TABLE,
            {"table": "t", "schema": [list(c) for c in SCHEMA], "partition_key": "id"},
        ),
    ],
    ids=[
        "create_tenant-shards",
        "create_tenant-shards-0",
        "create_tenant-shards-str",
        "create_table-partition_key",
    ],
)
def test_sharding_over_the_wire_is_a_bad_request(served, client, op, body):
    """A request for a sharded tenant or a partitioned table is refused
    before anything changes: no catalog row, no directory, no table."""
    client.create_tenant("acme")
    assert client.tables(tenant="acme") == []  # attached: files exist
    tenants = os.path.join(served.server.path, "tenants")
    listed, files = client.list_tenants(), tree(tenants)
    with pytest.raises(ServerError) as err:
        client.call(op, body, tenant="acme" if op is Op.CREATE_TABLE else None)
    assert err.value.status is Status.BAD_REQUEST
    assert client.list_tenants() == listed
    assert tree(tenants) == files
    assert client.tables(tenant="acme") == []


def test_one_shard_over_the_wire_is_one_engine(served, client):
    """``shards: 1``, which older clients send, names the only layout
    there is: the tenant opens as one engine."""
    client.call(Op.CREATE_TENANT, {"name": "wide", "shards": 1})
    assert client.list_tenants()["tenants"] == [{"name": "wide", "mode": "nvm"}]
    view = client.for_tenant("wide")
    view.create_table("t", SCHEMA)
    view.insert_many("t", [{"id": i, "name": "x", "qty": i} for i in range(20)])
    assert view.aggregate("t", "sum", column="qty") == sum(range(20))
    assert "shards.json" not in os.listdir(tenant_dir(served.server.path, "wide"))


def test_malformed_body_is_bad_request(client):
    client.create_tenant("acme")
    with pytest.raises(ServerError) as err:
        client.call(Op.QUERY, "not-a-dict", tenant="acme")
    assert err.value.status is Status.BAD_REQUEST
    with pytest.raises(ServerError) as err:
        client.call(
            Op.QUERY, {"table": "t", "predicate": ["bogus", "a", 1]}, tenant="acme"
        )
    assert err.value.status is Status.BAD_REQUEST
    client.for_tenant("acme").create_table("t", SCHEMA)
    internal = get_registry().counter("server_internal_errors_total")
    before = internal.value
    for rows in (["id"], [["id", "name"]], [5]):
        with pytest.raises(ServerError) as err:
            client.call(Op.INSERT_MANY, {"table": "t", "rows": rows}, tenant="acme")
        assert err.value.status is Status.BAD_REQUEST, err.value.message
    assert internal.value == before
    assert client.for_tenant("acme").query("t") == []


def active_transactions(served, tenant="acme") -> int:
    """Transactions still open on the tenant's engine."""
    catalog = served.server.catalog
    engine = catalog.acquire(tenant)
    try:
        return len(engine._manager.active)
    finally:
        catalog.release(tenant)


def test_rejected_inserts_do_not_wedge_the_tenant(served, client):
    """300 malformed INSERTs (more than the 256 transaction slots) each
    answer an error and hold no transaction: the tenant still accepts
    writes afterwards. A row rejected before a transaction opens aborts
    nothing, so the abort count is only bounded."""
    view = seed_tenant(client, rows=0)
    bad = (Op.INSERT, {"table": "items", "row": {"id": "x", "name": "a", "qty": 1}})
    for _ in range(3):  # batches stay under the in-flight admission quota
        responses = view.pipeline([bad] * 100)
        assert [r.status for r in responses] == [Status.BAD_REQUEST] * 100
    assert view.insert("items", {"id": 1, "name": "a", "qty": 2}) == {
        "row": 0,
        "delta": True,
    }
    stats = view.stats()
    assert stats["aborts"] <= 300
    assert stats["tables"]["items"]["delta_rows"] == 1
    assert active_transactions(served) == 0


# ----------------------------------------------------------------------
# Pipelining and concurrency
# ----------------------------------------------------------------------


def test_pipeline_responses_in_request_order(client):
    view = seed_tenant(client)
    requests = []
    for i in range(24):
        if i % 3 == 0:
            requests.append((Op.QUERY, {"table": "items", "predicate": ["eq", "id", i % 10]}))
        else:
            requests.append(
                (Op.INSERT, {"table": "items", "row": {"id": 100 + i, "name": "p", "qty": i}})
            )
    responses = view.pipeline(requests)
    assert len(responses) == 24
    assert all(r.ok for r in responses)
    # Inserted rows all landed despite out-of-order completion.
    assert view.aggregate("items", "count") == 10 + sum(1 for i in range(24) if i % 3)


def test_pipeline_carries_per_request_errors(client):
    seed_tenant(client)
    responses = client.pipeline(
        [
            (Op.PING, {}),
            (Op.QUERY, {"table": "missing"}),
            (Op.PING, {}),
        ],
        tenant="acme",
    )
    assert [r.status for r in responses] == [
        Status.OK,
        Status.NO_SUCH_TABLE,
        Status.OK,
    ]


def test_concurrent_clients_one_tenant(served):
    with ReproClient(HOST, served.port) as admin:
        seed_tenant(admin, rows=0)
    workers, per = 6, 40
    errors = []

    def run(slot):
        try:
            with ReproClient(HOST, served.port, tenant="acme") as c:
                for i in range(per):
                    c.insert(
                        "items",
                        {"id": slot * per + i, "name": f"w{slot}", "qty": i},
                    )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(s,)) for s in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    with ReproClient(HOST, served.port, tenant="acme") as c:
        assert c.aggregate("items", "count") == workers * per
        for slot in range(workers):
            assert c.aggregate(
                "items", "count", predicate=Eq("name", f"w{slot}")
            ) == per


def test_concurrent_pipelines_across_tenants(served):
    """Three tenants x three pipelining connections, more threads than
    cores and a short switch interval: every connection gets its own
    answers, and a read at the end of a pipeline sees every insert the
    same connection sent before it — whichever tick each rode."""
    tenants, per_tenant, rounds, depth = ("a", "b", "c"), 3, 8, 12
    with ReproClient(HOST, served.port) as admin:
        for tenant in tenants:
            seed_tenant(admin, tenant=tenant, rows=0)
    errors = []

    def run(tenant, slot):
        try:
            with ReproClient(HOST, served.port, tenant=tenant) as c:
                for n in range(rounds):
                    rows = [
                        {"id": (slot * rounds + n) * depth + i, "name": f"w{slot}", "qty": i}
                        for i in range(depth)
                    ]
                    responses = c.pipeline(
                        [insert_req("items", r) for r in rows]
                        + [(Op.AGGREGATE, {"table": "items", "func": "count",
                                           "predicate": ["eq", "name", f"w{slot}"]})]
                    )
                    assert all(r.ok for r in responses), responses
                    assert responses[-1].body["value"] == (n + 1) * depth
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(tenant, slot))
        for tenant in tenants
        for slot in range(per_tenant)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    with ReproClient(HOST, served.port) as c:
        for tenant in tenants:
            assert c.aggregate("items", "count", tenant=tenant) == (
                per_tenant * rounds * depth
            )
            assert active_transactions(served, tenant) == 0


# ----------------------------------------------------------------------
# Ticks: coalesced inserts, barriers, exact per-request outcomes
# ----------------------------------------------------------------------


def insert_req(table, row):
    return (Op.INSERT, {"table": table, "row": row})


def item(i):
    return {"id": i, "name": f"n{i % 3}", "qty": i}


def busy_lane(rows=3000):
    """A barrier slow enough that what is pipelined behind it arrives
    while its tick runs, and so shares the next one."""
    return (Op.INSERT_MANY, {"table": "items", "rows": [item(-1 - i) for i in range(rows)]})


def test_a_tick_answers_each_request_as_if_it_came_alone(served, client):
    good = [insert_req("items", item(i)) for i in range(40)]
    mixed = good[:10] + [
        insert_req("items", {"id": "x", "name": "a", "qty": 1}),  # wrong type
        insert_req("items", {"id": 1, "nope": 2}),  # unknown column
        insert_req("missing", item(1)),  # unknown table
        insert_req("items", [1, "a", 2]),  # row is not a dict
        (Op.INSERT, {"table": "items"}),  # no row at all
        (Op.INSERT, "not-a-dict"),
        (Op.QUERY, {"table": "missing"}),
    ] + good[10:]
    for tenant in ("alone", "tick"):
        seed_tenant(client, tenant=tenant, rows=0)
    alone = [
        client.pipeline([request], tenant="alone")[0] for request in [busy_lane()] + mixed
    ][1:]
    before = client.stats(tenant="tick")["commits"]
    together = client.pipeline([busy_lane()] + mixed, tenant="tick")[1:]
    # Same status and same body — error text and row position alike.
    assert [(r.status, r.body) for r in together] == [
        (r.status, r.body) for r in alone
    ]
    assert [r.status for r in together].count(Status.OK) == len(good)
    for tenant in ("alone", "tick"):
        rows = client.query("items", Gt("id", -1), columns=["id"], tenant=tenant)
        assert sorted(r["id"] for r in rows) == list(range(40))
        assert active_transactions(served, tenant) == 0
    # ... and the 40 acks shared commits: the lane was busy when they came.
    assert client.stats(tenant="tick")["commits"] - before < 1 + len(good)


def test_barrier_orders_and_reads_see_their_ticks_inserts(client):
    client.create_tenant("acme")
    responses = client.pipeline(
        [(Op.CREATE_TABLE, {"table": "t2", "schema": [list(c) for c in SCHEMA]})]
        + [insert_req("t2", item(i)) for i in range(3)]
        + [(Op.QUERY, {"table": "t2"})],
        tenant="acme",
    )
    assert [r.status for r in responses] == [Status.OK] * 5
    assert responses[-1].body["count"] == 3


def test_pipelined_inserts_share_commits_and_fsyncs_on_a_log_tenant(client):
    view = seed_tenant(client, rows=0, mode="log")
    before = view.stats()
    responses = view.pipeline([busy_lane()] + [insert_req("items", item(i)) for i in range(64)])
    assert all(r.ok for r in responses)
    after = view.stats()
    # The barrier is one commit and one fsync; the 64 acks share the rest.
    assert after["commits"] - before["commits"] < 64
    assert after["wal"]["syncs"] - before["wal"]["syncs"] < 64
    assert view.aggregate("items", "count", predicate=Gt("id", -1)) == 64


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


def test_rate_limit_rejects_beyond_budget(tmp_path):
    config = ServerConfig(rate_limit=5.0, burst=5.0)
    with ServerThread(str(tmp_path / "data"), config) as thread:
        with ReproClient(HOST, thread.port) as client:
            seed_tenant(client, rows=0)
            view = client.for_tenant("acme")
            statuses = [
                r.status
                for r in view.pipeline(
                    [(Op.TABLES, {})] * 30
                )
            ]
            # seed_tenant already drew from the 5-token burst; what is
            # left admits a few requests and rejects the rest.
            assert 1 <= statuses.count(Status.OK) <= 10
            assert Status.RATE_LIMITED in statuses
            # The plain call surface raises the typed rejection.
            with pytest.raises(Rejected):
                for _ in range(30):
                    view.tables()


def test_inflight_quota_rejects_pileups(tmp_path):
    config = ServerConfig(max_inflight=1, workers=4)
    with ServerThread(str(tmp_path / "data"), config) as thread:
        with ReproClient(HOST, thread.port) as client:
            seed_tenant(client, rows=0)
            batch = [{"id": i, "name": "b", "qty": i} for i in range(500)]
            responses = client.pipeline(
                [(Op.INSERT_MANY, {"table": "items", "rows": batch})] * 8,
                tenant="acme",
            )
            statuses = [r.status for r in responses]
            assert Status.OK in statuses
            assert Status.TOO_MANY_INFLIGHT in statuses
            # Rejected batches were never applied partially: the count is
            # an exact multiple of the batch size.
            count = client.aggregate("items", "count", tenant="acme")
            assert count == 500 * statuses.count(Status.OK)


def test_admission_is_released_per_tick(tmp_path, monkeypatch):
    """A pipelined burst split over several ticks is released per tick:
    the inflight count and the ``server_inflight`` gauge return to 0, and
    the cap still refuses while a tick holds its requests."""
    config = ServerConfig(max_inflight=4, workers=2)
    with ServerThread(str(tmp_path / "data"), config) as thread:
        server = thread.server
        with ReproClient(HOST, thread.port) as client:
            seed_tenant(client, rows=0)
            admission = server._admission
            gauge = get_registry().gauge("server_inflight", tenant="acme")
            base = gauge.value  # the registry is the process's
            assert admission.inflight("acme") == 0
            held, release = threading.Event(), threading.Event()
            run_tick, releases = server._run_tick, []
            admission_release = admission.release

            def counted(tenant, n=1):
                releases.append((tenant, n))
                admission_release(tenant, n)

            def gated(key, tick):
                if key == "acme" and not held.is_set():
                    held.set()
                    assert release.wait(10)
                return run_tick(key, tick)

            monkeypatch.setattr(server, "_run_tick", gated)
            monkeypatch.setattr(admission, "release", counted)
            tick_h = get_registry().histogram("server_tick_requests")
            ticks_before = tick_h.count

            def insert(i):
                row = {"id": i, "name": "x", "qty": i}
                return client._send_raw(
                    Op.INSERT, {"table": "items", "row": row}, "acme"
                )

            first = insert(0)
            assert held.wait(10)  # tick 1 holds one admitted request
            ids = [insert(i) for i in range(1, 7)]
            # Dispatch is in arrival order: the last refusal being back
            # means the three admitted requests before it are queued.
            refused = [client._recv_response(i).status for i in ids[3:]]
            assert refused == [Status.TOO_MANY_INFLIGHT] * 3
            assert admission.inflight("acme") == 4 and gauge.value == base + 4
            release.set()
            answered = [client._recv_response(i) for i in [first] + ids[:3]]
            assert all(r.ok for r in answered)
            assert tick_h.count - ticks_before == 2
            assert releases == [("acme", 1), ("acme", 3)]  # one per tick
            assert admission.inflight("acme") == 0 and gauge.value == base
            # The cap is whole again: a burst of four is admitted in full.
            again = client.pipeline([(Op.TABLES, {})] * 4, tenant="acme")
            assert [r.status for r in again] == [Status.OK] * 4
            assert client.aggregate("items", "count", tenant="acme") == 4
            assert admission.inflight("acme") == 0 and gauge.value == base


def test_admin_ops_bypass_admission(tmp_path):
    config = ServerConfig(rate_limit=1.0, burst=1.0)
    with ServerThread(str(tmp_path / "data"), config) as thread:
        with ReproClient(HOST, thread.port) as client:
            for _ in range(20):
                client.ping()
            assert client.list_tenants()["tenants"] == []


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_restart_recovers_tenants_in_process(tmp_path):
    path = str(tmp_path / "data")
    with ServerThread(path) as thread:
        with ReproClient(HOST, thread.port) as client:
            seed_tenant(client, rows=25)
    with ServerThread(path) as thread:
        with ReproClient(HOST, thread.port) as client:
            assert client.list_tenants()["tenants"] == [
                {"name": "acme", "mode": "nvm"}
            ]
            assert client.aggregate("items", "count", tenant="acme") == 25
            report = client.recovery_reports("acme")["acme"]
            assert report["total_seconds"] >= 0.0


@pytest.mark.parametrize("mode", ["nvm", "log"])
def test_a_sharded_tenant_directory_is_refused_over_the_wire(tmp_path, mode):
    """A tenant whose directory the removed sharded engine laid out does
    not stop the server: its requests get a typed refusal, its files
    stay as they were, and the other tenants serve."""
    path = str(tmp_path / "data")
    with ServerThread(path) as thread:
        with ReproClient(HOST, thread.port) as client:
            client.create_tenant("old", mode=mode)
            seed_tenant(client, rows=5)
    legacy = tenant_dir(path, "old")
    write_sharded_layout(legacy, DurabilityMode(mode))
    files = tree(legacy)
    with ServerThread(path) as thread:
        with ReproClient(HOST, thread.port) as client:
            with pytest.raises(ServerError) as err:
                client.tables(tenant="old")
            assert err.value.status is Status.BAD_REQUEST
            assert "shards.json" in err.value.message
            assert client.aggregate("items", "count", tenant="acme") == 5
    assert tree(legacy) == files


def test_stop_is_idempotent(tmp_path):
    thread = ServerThread(str(tmp_path / "data"))
    thread.start()
    thread.stop()
    thread.stop()


def test_metrics_over_the_wire(client):
    seed_tenant(client)
    registry = client.metrics()
    assert any(
        key.startswith("server_requests_total") and 'tenant="acme"' in key
        for key in registry
    )
    text = client.metrics(format="prometheus")
    assert "server_requests_total" in text
    assert 'tenant="acme"' in text


def test_server_metrics_snapshot(served, client):
    seed_tenant(client)
    snapshot = served.server.metrics_snapshot()
    assert "acme" in snapshot["tenants"]
    assert "acme" in snapshot["attached"]
    assert any(
        key.startswith("server_requests_total") for key in snapshot["registry"]
    )


def test_unknown_tenants_leave_no_state_behind(served, client):
    """Names a client made up never become metric labels, admission
    entries or lanes — N requests for N unknown tenants leave the
    server where it was."""
    seed_tenant(client)
    server = served.server

    def state():
        client.ping()  # answered once the loop is past the last lane's step
        return (
            len(get_registry().snapshot()),
            dict(server._admission._inflight),
            dict(server._admission._buckets),
            set(server._lanes),
        )

    def probe(names):
        for name in names:
            with pytest.raises(ServerError) as err:
                client.query("t", tenant=name)
            assert err.value.status is Status.NO_SUCH_TENANT

    probe(["nope-warm"])  # the shared series exist from here on
    before = state()
    probe([f"nope-{i}" for i in range(200)] + ["x" * 5000])
    assert state() == before
    assert 'tenant="nope-0"' not in client.metrics(format="prometheus")
    # A known tenant is still labelled by name.
    assert any(
        key.startswith("server_requests_total") and 'tenant="acme"' in key
        for key in client.metrics()
    )


def test_tick_size_histogram_is_exported(client):
    view = seed_tenant(client, rows=0)
    view.pipeline([busy_lane(500)] + [insert_req("items", item(i)) for i in range(20)])
    ticks = client.metrics()["server_tick_requests"]
    # Fewer ticks than requests: some tick carried several.
    assert 0 < ticks["count"] < ticks["sum"]
    assert "server_tick_requests_bucket" in client.metrics(format="prometheus")


# ----------------------------------------------------------------------
# A tick under SIGKILL (real process)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["nvm", "log"])
def test_sigkill_with_a_tick_unanswered_on_the_wire(mode):
    """Acked rows survive; a row whose ack never came is wholly there or
    wholly absent; the tenant's engine verifies clean afterwards."""
    base = tempfile.mkdtemp(prefix="tick-kill-")
    port = free_port()
    proc = spawn_server(base, port, mode=mode)

    def row(i):
        return {"id": i, "name": f"n{i}", "qty": i * 3}

    try:
        wait_for_server(HOST, port)
        with ReproClient(HOST, port, tenant="acme") as client:
            seed_tenant(client, rows=0)
            acked = client.pipeline([insert_req("items", row(i)) for i in range(64)])
            assert all(r.ok for r in acked)
            # 64 more in one write, then the kill: the server dies with
            # them in a lane, in a tick, or answered but never read.
            client._sock.sendall(
                b"".join(
                    protocol.pack_request(
                        Op.INSERT, 1000 + i, "acme", {"table": "items", "row": row(i)}
                    )
                    for i in range(64, 128)
                )
            )
            client._sock.recv(1)  # the server is working on them
            proc.kill()
            proc.wait(timeout=30)
        proc = spawn_server(base, port, mode=mode)
        wait_for_server(HOST, port, timeout=60)
        with ReproClient(HOST, port, tenant="acme") as client:
            got = {r["id"]: r for r in client.query("items")}
            assert len(got) == client.aggregate("items", "count")  # no row twice
        for i in range(64):
            assert got.get(i) == row(i), f"acked row {i} lost or corrupted"
        for i in range(64, 128):
            assert got.get(i) in (None, row(i)), f"unacked row {i} recovered in part"
        assert set(got) <= set(range(128))
        proc.terminate()
        proc.wait(timeout=30)
        config = EngineConfig(mode=DurabilityMode(mode), extent_size=8 * 1024 * 1024)
        engine = Database(tenant_dir(base, "acme"), config)
        try:
            assert engine.verify() == []
            assert len(engine.query("items")) == len(got)
        finally:
            engine.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        shutil.rmtree(base, ignore_errors=True)
