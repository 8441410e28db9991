"""In-process server tests: sessions, ops, pipelining, admission.

These run a real asyncio server (:class:`ServerThread`) against real
sockets, but inside the test process — crash/restart scenarios with a
genuine process boundary live in ``tests/test_tenants.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.query.predicate import Between, Eq, Gt
from repro.server.client import Rejected, ReproClient, ServerError
from repro.server.protocol import Op, PROTOCOL_VERSION, Status
from repro.server.server import ServerConfig, ServerThread

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


def test_sharded_tenant_over_the_wire(client):
    client.create_tenant("wide", shards=2)
    view = client.for_tenant("wide")
    view.create_table("t", SCHEMA, partition_key="id")
    view.insert_many("t", [{"id": i, "name": "x", "qty": i} for i in range(20)])
    assert view.aggregate("t", "count") == 20
    assert view.aggregate("t", "sum", column="qty") == sum(range(20))


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


def test_rejected_inserts_do_not_wedge_the_tenant(client):
    """300 malformed INSERTs (more than the 256 transaction slots) each
    answer an error and release their transaction: the tenant still
    accepts writes afterwards."""
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
    assert stats["aborts"] == 300
    assert stats["tables"]["items"]["delta_rows"] == 1


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
                {"name": "acme", "shards": 1, "mode": "nvm"}
            ]
            assert client.aggregate("items", "count", tenant="acme") == 25
            report = client.recovery_reports("acme")["acme"]
            assert report["total_seconds"] >= 0.0


def test_sharded_tenant_reports_in_the_single_shard_shape(tmp_path):
    """RECOVERY and STATS answer for a 4-shard tenant with the same keys
    a single-shard one has, numbers summed over the shards."""
    path = str(tmp_path / "data")
    with ServerThread(path) as thread:
        with ReproClient(HOST, thread.port) as client:
            seed_tenant(client, rows=25, shards=4, mode="log")
    with ServerThread(path) as thread:
        with ReproClient(HOST, thread.port) as client:
            view = client.for_tenant("acme")
            assert view.aggregate("items", "count") == 25
            report = client.recovery_reports("acme")["acme"]
            assert report["shards"] == len(report["per_shard"]) == 4
            assert report["total_seconds"] > 0
            assert report["phases"]["log_replay"] > 0
            assert report["rows_recovered"] == 25
            stats = view.stats()
            table = stats["tables"]["items"]
            assert table["main_rows"] + table["delta_rows"] == 25
            assert stats["commits"] == sum(s["commits"] for s in stats["per_shard"])


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
