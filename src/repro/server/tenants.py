"""Multi-tenant namespaces: a durable catalog of per-tenant engines.

Each tenant owns a private namespace directory —
``<root>/tenants/<name>/`` — holding a full
:class:`~repro.core.Database` in the tenant's recorded durability
mode. Tenants are fully isolated: separate durability state,
separate table namespaces (two tenants may both have an ``orders``
table), separate recovery.

The catalog itself is dogfood: tenant rows live in a tiny ``Database``
at ``<root>/_catalog/`` under the same durability mode as the tenants,
so the mapping tenant → mode survives restarts through the
exact machinery the paper describes — after a crash the catalog is
recovered first (instantly, on NVM), then every tenant namespace is
reopened from it.

Attachment is lazy with an LRU cap: a tenant's engine opens on first
use (which *is* its recovery) and the least-recently-used unpinned
engine is cleanly closed once more than ``max_attached`` are resident.
A clean close makes the next attach an instant restart, so the cap
trades a few milliseconds of reattach latency for bounded memory.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Optional

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database
from repro.obs import get_registry
from repro.query.predicate import Eq
from repro.storage.types import DataType

#: Tenant names are path components; keep them boring and traversal-proof.
_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")

_CATALOG_DIR = "_catalog"
_TENANT_ROOT = "tenants"
_TABLE = "tenants"


class TenantError(Exception):
    """Base for tenant-catalog failures."""


class NoSuchTenant(TenantError):
    pass


class TenantExists(TenantError):
    pass


class InvalidTenantName(TenantError):
    pass


def tenant_dir(root: str, name: str) -> str:
    """The namespace directory of one tenant."""
    return os.path.join(root, _TENANT_ROOT, name)


class TenantCatalog:
    """Durable tenant registry plus the LRU cache of attached engines.

    Thread-safe: the server runs each tenant's ticks on a worker pool,
    so every catalog operation serialises on one re-entrant lock (catalog
    work is registry bookkeeping — engine calls happen outside, on the
    engine's own thread-safe paths). Requests *pin* the engine they run
    against (:meth:`acquire` / :meth:`release`); the LRU eviction never
    closes a pinned engine out from under an in-flight request.
    """

    def __init__(
        self,
        root: str,
        engine_config: Optional[EngineConfig] = None,
        *,
        max_attached: Optional[int] = None,
    ):
        self.root = root
        self.engine_config = (engine_config or EngineConfig()).validated()
        if max_attached is not None and max_attached < 1:
            raise ValueError("max_attached must be >= 1")
        self.max_attached = max_attached
        os.makedirs(os.path.join(root, _TENANT_ROOT), exist_ok=True)
        # The catalog database is tiny; shrink its pmem extents.
        catalog_config = replace(
            self.engine_config,
            extent_size=min(self.engine_config.extent_size, 8 * 1024 * 1024),
        )
        self._db = Database(os.path.join(root, _CATALOG_DIR), catalog_config)
        if _TABLE not in self._db.table_names:
            self._db.create_table(
                _TABLE,
                {
                    "name": DataType.STRING,
                    "shards": DataType.INT64,  # always 1: the on-disk layout
                    "mode": DataType.STRING,
                },
            )
        self._lock = threading.RLock()
        # The registered names, mirrored in memory: the server's event
        # loop asks ``exists`` per request and must not run an engine
        # query (or wait for this lock) to find out.
        self._names = {row["name"] for row in self._db.query(_TABLE).rows()}
        self._attached: "OrderedDict[str, Database]" = OrderedDict()
        self._pins: dict[str, int] = {}
        #: Per-tenant recovery report dicts from the last attach.
        self.recovery_reports: dict[str, dict] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def tenants(self) -> list[dict]:
        """Every registered tenant as ``{"name", "mode"}``."""
        with self._lock:
            rows = self._db.query(_TABLE).rows(["name", "mode"])
        return sorted(rows, key=lambda row: row["name"])

    def tenant_names(self) -> list[str]:
        return [row["name"] for row in self.tenants()]

    def exists(self, name: str) -> bool:
        return name in self._names

    def create_tenant(
        self,
        name: str,
        *,
        mode: Optional[DurabilityMode] = None,
    ) -> dict:
        """Register a tenant and create its namespace directory.

        The catalog row commits through the catalog database's
        durability driver before the call returns, so a crash right
        after an acked ``create_tenant`` still recovers the tenant.
        """
        if not _NAME_RE.match(name or ""):
            raise InvalidTenantName(
                f"invalid tenant name {name!r} (want [a-z0-9][a-z0-9_-]*, "
                "max 64 chars)"
            )
        mode_value = (mode or self.engine_config.mode).value
        with self._lock:
            if self.exists(name):
                raise TenantExists(f"tenant {name!r} already exists")
            self._db.insert(_TABLE, {"name": name, "shards": 1, "mode": mode_value})
            os.makedirs(tenant_dir(self.root, name), exist_ok=True)
            self._names.add(name)
        get_registry().counter("server_tenants_created_total").inc()
        return {"name": name, "mode": mode_value}

    def drop_tenant(self, name: str, *, remove_data: bool = True) -> None:
        """Unregister a tenant; optionally delete its namespace."""
        with self._lock:
            if self._pins.get(name, 0):
                raise TenantError(
                    f"tenant {name!r} has in-flight requests; retry the drop"
                )
            with self._db.begin() as txn:
                result = txn.query(_TABLE, Eq("name", name))
                refs = result.refs()
                if not refs:
                    raise NoSuchTenant(f"no tenant {name!r}")
                for ref in refs:
                    txn.delete(_TABLE, ref)
            self._names.discard(name)
            engine = self._attached.pop(name, None)
            self._pins.pop(name, None)
            self.recovery_reports.pop(name, None)
            if engine is not None:
                engine.close()
            if remove_data:
                shutil.rmtree(tenant_dir(self.root, name), ignore_errors=True)
        get_registry().counter("server_tenants_dropped_total").inc()

    # ------------------------------------------------------------------
    # Attachment (lazy open + LRU cap)
    # ------------------------------------------------------------------

    def _attach_locked(self, name: str) -> Database:
        engine = self._attached.get(name)
        if engine is not None:
            self._attached.move_to_end(name)
            return engine
        rows = self._db.query(_TABLE, Eq("name", name)).rows()
        if not rows:
            raise NoSuchTenant(f"no tenant {name!r}")
        config = replace(self.engine_config, mode=DurabilityMode(rows[0]["mode"]))
        engine = Database(tenant_dir(self.root, name), config)
        self._attached[name] = engine
        self.recovery_reports[name] = engine.last_recovery.as_dict()
        registry = get_registry()
        registry.counter("server_tenant_attaches_total").inc()
        registry.gauge("server_tenants_attached").set(len(self._attached))
        self._evict_over_cap_locked()
        return engine

    def _evict_over_cap_locked(self) -> None:
        if self.max_attached is None:
            return
        registry = get_registry()
        # Oldest-first sweep over unpinned engines; pinned ones are
        # skipped and re-considered on the next attach.
        for name in list(self._attached):
            if len(self._attached) <= self.max_attached:
                break
            if self._pins.get(name, 0):
                continue
            engine = self._attached.pop(name)
            engine.close()
            registry.counter("server_tenant_evictions_total").inc()
        registry.gauge("server_tenants_attached").set(len(self._attached))

    def acquire(self, name: str) -> Database:
        """Attach (if needed) and pin a tenant's engine for one request."""
        with self._lock:
            if self._closed:
                raise TenantError("catalog is closed")
            # Pin *before* attaching: the LRU sweep the attach runs must
            # never evict the engine we are about to hand out.
            self._pins[name] = self._pins.get(name, 0) + 1
            try:
                return self._attach_locked(name)
            except BaseException:
                self._unpin_locked(name)
                raise

    def _unpin_locked(self, name: str) -> None:
        pins = self._pins.get(name, 0)
        if pins <= 1:
            self._pins.pop(name, None)
        else:
            self._pins[name] = pins - 1

    def release(self, name: str) -> None:
        with self._lock:
            self._unpin_locked(name)
            self._evict_over_cap_locked()

    def attached_names(self) -> list[str]:
        with self._lock:
            return list(self._attached)

    # ------------------------------------------------------------------
    # Recovery and lifecycle
    # ------------------------------------------------------------------

    def recover_all(self) -> dict[str, dict]:
        """Attach every registered tenant (instant-restart recovery).

        Called once at server start: every namespace is reopened —
        which *is* its recovery — and the per-tenant
        ``RecoveryReport`` dicts are retained for the wire
        (:data:`~repro.server.protocol.Op.RECOVERY`). With an LRU cap
        smaller than the tenant count the excess engines are evicted
        again right away, but their recovery still ran and its report
        is still kept. A namespace in a layout ``Database`` refuses to
        open stays detached: its own requests get that refusal, and the
        other tenants still serve.
        """
        with self._lock:
            for name in self.tenant_names():
                try:
                    self._attach_locked(name)
                except ValueError:
                    continue
            return dict(self.recovery_reports)

    def close(self) -> None:
        """Cleanly close every attached engine and the catalog itself."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            attached = list(self._attached.values())
            self._attached.clear()
            self._pins.clear()
        for engine in attached:
            engine.close()
        self._db.close()

    @property
    def is_closed(self) -> bool:
        return self._closed
