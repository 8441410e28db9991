"""Blocking TCP client for the repro wire protocol.

The client the tests, benchmarks, and examples use::

    with ReproClient("127.0.0.1", port) as client:
        client.create_tenant("acme")
        acme = client.for_tenant("acme")
        acme.create_table("items", [("id", "int64"), ("name", "string")])
        acme.insert("items", {"id": 1, "name": "anvil"})
        print(acme.query("items"))

One socket, one HELLO handshake, then framed request/response.
Requests are matched to responses by request id, so the client supports
**pipelining**: :meth:`ReproClient.pipeline` sends a window of requests
before reading any response — the throughput mode experiment E15
measures — while the plain methods stay strictly call/response.

Every error status raises :class:`ServerError` carrying the
:class:`~repro.server.protocol.Status` code, except the admission
rejections surfaced as :class:`Rejected` so load generators can count
them without string matching.
"""

from __future__ import annotations

import socket
import time
from array import array
from contextlib import suppress
from itertools import chain
from typing import Optional, Sequence

from repro.query.predicate import Predicate
from repro.server import protocol
from repro.server.protocol import (
    FrameDecoder,
    Op,
    PROTOCOL_VERSION,
    ProtocolError,
    Response,
    Status,
)

_RECV_CHUNK = 256 * 1024


class ServerError(Exception):
    """Non-OK response; ``status`` is the wire code."""

    def __init__(self, status: Status, message: str):
        super().__init__(f"{status.name}: {message}")
        self.status = status
        self.message = message


class Rejected(ServerError):
    """Admission rejection (rate limit or inflight quota)."""


_REJECTIONS = (Status.RATE_LIMITED, Status.TOO_MANY_INFLIGHT)


def _columns(rows: list) -> Optional[dict]:
    """``rows`` as ``{name: column}`` when all are dicts holding the same
    keys, at least one (a column carries the row count), else None: a
    missing key and one holding None differ for a name the table lacks.
    A column of exact ints within int64 packs as ``'q'``, one of exact
    floats as ``'d'``; the rest stay lists."""
    if not all(isinstance(row, dict) for row in rows):
        return None
    names = dict.fromkeys(chain.from_iterable(rows))  # first-seen order
    if not names or any(len(row) != len(names) for row in rows):
        return None
    columns = {}
    for name in names:
        column = columns[name] = [row[name] for row in rows]
        kinds = set(map(type, column))
        with suppress(OverflowError):  # an int past int64 stays in the list
            if kinds in ({int}, {float}):
                columns[name] = array("q" if int in kinds else "d", column)
    return columns


class ReproClient:
    """One connection to a repro server (optionally tenant-scoped)."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "",
        timeout: Optional[float] = 30.0,
        hello: bool = True,
    ):
        self.tenant = tenant
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder()
        self._pending: dict[int, Response] = {}
        self._next_id = 1
        self._host, self._port = host, port
        if hello:
            self._handshake()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _handshake(self) -> None:
        body = self.call(
            Op.HELLO, {"version": PROTOCOL_VERSION, "client": "repro-client"}
        )
        self.server_version = body.get("version")

    def _send_raw(self, op: Op, body, tenant: Optional[str]) -> int:
        request_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF or 1
        frame = protocol.pack_request(
            op, request_id, self.tenant if tenant is None else tenant, body
        )
        self._sock.sendall(frame)
        return request_id

    def _recv_response(self, request_id: int) -> Response:
        while True:
            response = self._pending.pop(request_id, None)
            if response is not None:
                return response
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                raise ConnectionError("server closed the connection")
            self._decoder.feed(data)
            for payload in self._decoder.frames():
                response = protocol.unpack_response(payload)
                self._pending[response.request_id] = response

    @staticmethod
    def _unwrap(response: Response):
        if response.ok:
            return response.body
        message = (
            response.body if isinstance(response.body, str) else repr(response.body)
        )
        if response.status in _REJECTIONS:
            raise Rejected(response.status, message)
        raise ServerError(response.status, message)

    def call(self, op: Op, body, *, tenant: Optional[str] = None):
        """One blocking request/response; returns the response body."""
        request_id = self._send_raw(op, body, tenant)
        return self._unwrap(self._recv_response(request_id))

    def pipeline(
        self, requests: Sequence[tuple], *, tenant: Optional[str] = None
    ) -> list[Response]:
        """Send ``[(op, body), ...]`` back-to-back, then collect.

        Responses come back in *request* order regardless of the order
        the server completed them in. Rejections and errors are
        returned as :class:`~repro.server.protocol.Response` objects,
        not raised — a load generator wants to count them, not die.
        """
        ids = [self._send_raw(op, body, tenant) for op, body in requests]
        return [self._recv_response(request_id) for request_id in ids]

    def close(self) -> None:
        try:
            self.call(Op.GOODBYE, {})
        except (OSError, ServerError, ProtocolError):
            pass
        self._sock.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admin surface
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        self.call(Op.PING, {})
        return True

    def create_tenant(
        self,
        name: str,
        *,
        mode: Optional[str] = None,
    ) -> dict:
        body: dict = {"name": name}
        if mode is not None:
            body["mode"] = mode
        return self.call(Op.CREATE_TENANT, body)

    def drop_tenant(self, name: str) -> None:
        self.call(Op.DROP_TENANT, {"name": name})

    def list_tenants(self) -> dict:
        return self.call(Op.LIST_TENANTS, {})

    def recovery_reports(self, tenant: Optional[str] = None) -> dict:
        body = {"tenant": tenant} if tenant else {}
        return self.call(Op.RECOVERY, body)

    def metrics(self, format: str = "json"):
        body = self.call(Op.METRICS, {"format": format})
        return body["text"] if format == "prometheus" else body["registry"]

    def for_tenant(self, tenant: str) -> "_TenantView":
        """A view of this connection scoped to one tenant.

        Shares the socket — do not interleave calls from threads.
        """
        return _TenantView(self, tenant)

    # ------------------------------------------------------------------
    # Data plane (uses ``self.tenant`` unless overridden)
    # ------------------------------------------------------------------

    def create_table(
        self,
        table: str,
        schema: Sequence[tuple],
        *,
        tenant: Optional[str] = None,
    ) -> None:
        body = {"table": table, "schema": [list(c) for c in schema]}
        self.call(Op.CREATE_TABLE, body, tenant=tenant)

    def drop_table(self, table: str, *, tenant: Optional[str] = None) -> None:
        self.call(Op.DROP_TABLE, {"table": table}, tenant=tenant)

    def create_index(
        self, table: str, column: str, *, tenant: Optional[str] = None
    ) -> None:
        self.call(Op.CREATE_INDEX, {"table": table, "column": column}, tenant=tenant)

    def tables(self, *, tenant: Optional[str] = None) -> list[str]:
        return self.call(Op.TABLES, {}, tenant=tenant)["tables"]

    def insert(self, table: str, row: dict, *, tenant: Optional[str] = None) -> dict:
        """Insert one row; returns its ``{"row", "delta"}`` position."""
        return self.call(Op.INSERT, {"table": table, "row": row}, tenant=tenant)

    def insert_many(
        self, table: str, rows: Sequence[dict], *, tenant: Optional[str] = None
    ) -> int:
        rows = list(rows)  # by column where :func:`_columns` can
        columns = _columns(rows)
        batch = {"rows": rows} if columns is None else {"columns": columns}
        return self.call(
            Op.INSERT_MANY, {"table": table, **batch}, tenant=tenant
        )["count"]

    def query(
        self,
        table: str,
        predicate: Optional[Predicate] = None,
        *,
        columns: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> list[dict]:
        return self.query_full(
            table, predicate, columns=columns, limit=limit, tenant=tenant
        )["rows"]

    def query_full(
        self,
        table: str,
        predicate: Optional[Predicate] = None,
        *,
        columns: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> dict:
        """Query returning ``{"rows": [...], "count": total}``."""
        body: dict = {
            "table": table,
            "predicate": protocol.predicate_to_wire(predicate),
        }
        if columns is not None:
            body["columns"] = list(columns)
        if limit is not None:
            body["limit"] = int(limit)
        return self.call(Op.QUERY, body, tenant=tenant)

    def aggregate(
        self,
        table: str,
        func: str,
        *,
        column: Optional[str] = None,
        group_by: Optional[str] = None,
        predicate: Optional[Predicate] = None,
        tenant: Optional[str] = None,
    ):
        body = {
            "table": table,
            "func": func,
            "column": column,
            "group_by": group_by,
            "predicate": protocol.predicate_to_wire(predicate),
        }
        result = self.call(Op.AGGREGATE, body, tenant=tenant)
        return result["groups"] if "groups" in result else result["value"]

    def stats(self, *, tenant: Optional[str] = None) -> dict:
        return self.call(Op.STATS, {}, tenant=tenant)


class _TenantView:
    """Tenant-scoped proxy over a shared :class:`ReproClient`."""

    _SCOPED = frozenset(
        {
            "create_table",
            "drop_table",
            "create_index",
            "tables",
            "insert",
            "insert_many",
            "query",
            "query_full",
            "aggregate",
            "stats",
            "call",
            "pipeline",
        }
    )

    def __init__(self, client: ReproClient, tenant: str):
        self._client = client
        self._tenant = tenant

    def __getattr__(self, name: str):
        attr = getattr(self._client, name)
        if name not in self._SCOPED:
            return attr

        def scoped(*args, **kwargs):
            kwargs.setdefault("tenant", self._tenant)
            return scoped_attr(*args, **kwargs)

        scoped_attr = attr
        return scoped


def wait_for_server(
    host: str, port: int, *, timeout: float = 30.0, interval: float = 0.01
) -> float:
    """Poll until a server answers a PING; returns seconds waited.

    The client-observed availability probe the restart benchmark uses:
    each attempt is a fresh connection (the old one died with the old
    process) and only a successful HELLO + PING counts as *up*.
    """
    deadline = time.monotonic() + timeout
    start = time.monotonic()
    while True:
        try:
            client = ReproClient(host, port, timeout=max(interval, 1.0))
            try:
                client.ping()
                return time.monotonic() - start
            finally:
                client.close()
        except (OSError, ServerError, ProtocolError):
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no server at {host}:{port} within {timeout}s"
                ) from None
            time.sleep(interval)
