"""Tenant catalog tests: registry durability, LRU attach, isolation.

The last test is the multi-tenant durability oracle: a real server
process is SIGKILLed while clients are mid-commit in two tenants, and
after restart every *acked* write must be present in its own tenant —
and only there.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading

import pytest

from repro.core.config import DurabilityMode, EngineConfig
from repro.query.predicate import Eq
from repro.server.client import ReproClient, wait_for_server
from repro.server.proc import free_port, spawn_server
from repro.server.tenants import (
    InvalidTenantName,
    NoSuchTenant,
    TenantCatalog,
    TenantError,
    TenantExists,
    tenant_dir,
)
from repro.storage.types import DataType

SCHEMA = {"id": DataType.INT64, "val": DataType.STRING}


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "srv")


def make_catalog(root, **kwargs):
    return TenantCatalog(root, EngineConfig(), **kwargs)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_create_list_exists(root):
    catalog = make_catalog(root)
    try:
        row = catalog.create_tenant("acme")
        assert row == {"name": "acme", "mode": "nvm"}
        catalog.create_tenant("globex", mode=DurabilityMode.LOG)
        assert catalog.tenant_names() == ["acme", "globex"]
        assert catalog.exists("acme")
        assert not catalog.exists("initech")
        assert os.path.isdir(tenant_dir(root, "acme"))
    finally:
        catalog.close()


@pytest.mark.parametrize(
    "name", ["", "UPPER", "has space", "-leading", "a" * 65, "dot.dot", "../evil"]
)
def test_invalid_names_rejected(root, name):
    catalog = make_catalog(root)
    try:
        with pytest.raises(InvalidTenantName):
            catalog.create_tenant(name)
    finally:
        catalog.close()


def test_duplicate_create_rejected(root):
    catalog = make_catalog(root)
    try:
        catalog.create_tenant("acme")
        with pytest.raises(TenantExists):
            catalog.create_tenant("acme")
    finally:
        catalog.close()


def test_catalog_survives_restart(root):
    catalog = make_catalog(root)
    catalog.create_tenant("acme", mode=DurabilityMode.LOG)
    engine = catalog.acquire("acme")
    engine.create_table("t", SCHEMA)
    engine.insert_many("t", [{"id": i, "val": "x"} for i in range(30)])
    catalog.release("acme")
    catalog.close()

    catalog = make_catalog(root)
    try:
        assert catalog.tenants() == [{"name": "acme", "mode": "log"}]
        reports = catalog.recover_all()
        assert "acme" in reports
        engine = catalog.acquire("acme")
        # The recorded mode (not the default) shaped the reopen.
        assert engine.mode is DurabilityMode.LOG
        assert len(engine.query("t")) == 30
        catalog.release("acme")
    finally:
        catalog.close()


def test_drop_tenant_removes_row_and_data(root):
    catalog = make_catalog(root)
    try:
        catalog.create_tenant("acme")
        engine = catalog.acquire("acme")
        engine.create_table("t", SCHEMA)
        engine.insert("t", {"id": 1, "val": "x"})
        catalog.release("acme")
        catalog.drop_tenant("acme")
        assert not catalog.exists("acme")
        assert not os.path.exists(tenant_dir(root, "acme"))
        with pytest.raises(NoSuchTenant):
            catalog.acquire("acme")
        with pytest.raises(NoSuchTenant):
            catalog.drop_tenant("acme")
        # The name is reusable and starts empty.
        catalog.create_tenant("acme")
        assert catalog.acquire("acme").table_names == []
        catalog.release("acme")
    finally:
        catalog.close()


def test_drop_refuses_pinned_tenant(root):
    catalog = make_catalog(root)
    try:
        catalog.create_tenant("acme")
        catalog.acquire("acme")
        with pytest.raises(TenantError, match="in-flight"):
            catalog.drop_tenant("acme")
        catalog.release("acme")
        catalog.drop_tenant("acme")
    finally:
        catalog.close()


# ----------------------------------------------------------------------
# Attachment LRU
# ----------------------------------------------------------------------


def test_lru_eviction_and_reattach(root):
    catalog = make_catalog(root, max_attached=2)
    try:
        for name in ("t1", "t2", "t3"):
            catalog.create_tenant(name)
            engine = catalog.acquire(name)
            engine.create_table("t", SCHEMA)
            engine.insert("t", {"id": 1, "val": name})
            catalog.release(name)
        # Only the cap stays attached; the oldest was evicted (closed).
        assert len(catalog.attached_names()) == 2
        assert "t1" not in catalog.attached_names()
        # Reattach recovers the evicted tenant transparently.
        engine = catalog.acquire("t1")
        assert engine.query("t").rows() == [{"id": 1, "val": "t1"}]
        catalog.release("t1")
        assert len(catalog.attached_names()) == 2
    finally:
        catalog.close()


def test_eviction_skips_pinned(root):
    catalog = make_catalog(root, max_attached=1)
    try:
        catalog.create_tenant("pinned")
        catalog.create_tenant("other")
        engine = catalog.acquire("pinned")
        other = catalog.acquire("other")
        # Both stay open: the pinned one could not be evicted.
        assert not engine.is_closed
        assert not other.is_closed
        assert "pinned" in catalog.attached_names()
        catalog.release("pinned")
        catalog.release("other")
        # Next attach can now shrink back to the cap.
        catalog.acquire("other")
        catalog.release("other")
        assert catalog.attached_names() == ["other"]
    finally:
        catalog.close()


def test_close_is_idempotent(root):
    catalog = make_catalog(root)
    catalog.create_tenant("acme")
    catalog.acquire("acme")
    catalog.release("acme")
    catalog.close()
    catalog.close()
    assert catalog.is_closed


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------


def test_same_named_tables_are_isolated(root):
    catalog = make_catalog(root)
    try:
        for name, rows in (("acme", 5), ("globex", 9)):
            catalog.create_tenant(name)
            engine = catalog.acquire(name)
            engine.create_table("orders", SCHEMA)
            engine.insert_many(
                "orders", [{"id": i, "val": f"{name}-{i}"} for i in range(rows)]
            )
            catalog.release(name)
        acme = catalog.acquire("acme")
        globex = catalog.acquire("globex")
        assert len(acme.query("orders")) == 5
        assert len(globex.query("orders")) == 9
        assert acme.query("orders", Eq("val", "globex-0")).rows() == []
        # DDL in one namespace is invisible to the other.
        acme.create_table("acme_only", SCHEMA)
        assert "acme_only" not in globex.table_names
        catalog.release("acme")
        catalog.release("globex")
    finally:
        catalog.close()


# ----------------------------------------------------------------------
# The multi-tenant durability oracle (real process, SIGKILL mid-commit)
# ----------------------------------------------------------------------


TENANTS = ("acme", "globex")
WIRE_SCHEMA = [["id", "int64"], ["val", "string"]]


def test_kill_mid_commit_acked_writes_survive_per_tenant():
    base = tempfile.mkdtemp(prefix="tenant-oracle-")
    port = free_port()
    proc = spawn_server(base, port)
    try:
        wait_for_server("127.0.0.1", port)
        with ReproClient("127.0.0.1", port) as admin:
            for tenant in TENANTS:
                admin.create_tenant(tenant)
                admin.create_table("t", WIRE_SCHEMA, tenant=tenant)

        acked: dict[str, list] = {tenant: [] for tenant in TENANTS}
        stop = threading.Event()

        def writer(tenant: str) -> None:
            # Insert until the server dies under us; every *returned*
            # insert is an acked commit and must survive.
            try:
                with ReproClient("127.0.0.1", port, tenant=tenant) as c:
                    i = 0
                    while not stop.is_set():
                        c.insert("t", {"id": i, "val": f"{tenant}-{i}"})
                        acked[tenant].append(i)
                        i += 1
            except (ConnectionError, OSError):
                pass  # the kill landed mid-request; that write is unacked

        threads = [
            threading.Thread(target=writer, args=(tenant,)) for tenant in TENANTS
        ]
        for thread in threads:
            thread.start()
        # Let both writers build up a stream of acked commits, then
        # SIGKILL mid-service.
        while any(len(ids) < 50 for ids in acked.values()):
            pass
        proc.kill()
        proc.wait(timeout=30)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        proc = spawn_server(base, port)
        wait_for_server("127.0.0.1", port, timeout=60)
        with ReproClient("127.0.0.1", port) as client:
            for tenant in TENANTS:
                rows = client.query("t", tenant=tenant)
                by_id = {row["id"]: row["val"] for row in rows}
                # Every acked write survived, with the right payload, in
                # the right namespace.
                for i in acked[tenant]:
                    assert by_id.get(i) == f"{tenant}-{i}", (
                        f"{tenant}: acked row {i} lost or corrupted"
                    )
                # No foreign rows leaked in.
                assert all(val.startswith(tenant) for val in by_id.values())
                # At most one unacked in-flight row beyond the acked set.
                assert len(rows) <= len(acked[tenant]) + 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        shutil.rmtree(base, ignore_errors=True)
