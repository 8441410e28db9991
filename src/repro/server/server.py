"""Asyncio TCP front-end over the tenant catalog.

Threading model — the part worth stating precisely (the ordering and
atomicity contract it keeps is in DESIGN.md, "Server and tenancy"):

* the **event loop** owns sockets, framing, and admission. It never
  calls into the engine: decoding a frame, checking a token bucket,
  queueing a request and writing a response are all O(request) work.
* every admitted request joins its tenant's **lane** (admin ops share
  one catalog lane). A lane has at most one **tick** in flight on the
  **worker thread pool**, and a tick is whatever arrived while the
  previous one ran — a lone request is a tick of one. So one tenant
  occupies one worker at a time, and ``workers`` bounds how many
  tenants run at once.
* **inside a tick** requests run in arrival order, except that within
  a run of ``INSERT``/``QUERY``/``AGGREGATE`` the single-row inserts go
  first, as one :meth:`~repro.core.Database.insert_each` per table: they
  share a commit, and a read sees every insert of its tick. Any other
  op is a **barrier**, executed in place; nothing moves across it.
* **back on the loop** admission is released once per tenant per tick
  and the responses packed; a connection gets its share of a tick in
  one socket write. Its read loop awaits ``drain()`` before reading
  more, so a client that stops reading its answers stops being read
  from — and never stalls a lane.

Shutdown is a graceful drain: stop accepting, fail new requests with
``SHUTTING_DOWN``, wait (bounded) for the lanes to empty, then close
every tenant engine cleanly — which is what makes the *next* start an
instant restart. A SIGKILL instead of a drain is the crash case the
whole system is built for: on restart the catalog recovers first, then
every tenant namespace, and acked writes are all there.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.core import Database, DurabilityMode, EngineConfig
from repro.obs import get_registry
from repro.obs.export import to_prometheus
from repro.query.aggregate import aggregate
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.protocol import (
    ADMIN_OPS,
    FrameDecoder,
    Op,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Status,
)
from repro.server.tenants import (
    InvalidTenantName,
    NoSuchTenant,
    TenantCatalog,
    TenantError,
    TenantExists,
)
from repro.storage.table import unpack_rowref
from repro.storage.types import DataType
from repro.txn.errors import TransactionConflict

_READ_CHUNK = 256 * 1024
#: The ``tenant`` metric label (and admission key) of every name the
#: catalog does not know; "-" is a request that names no tenant. Neither
#: is a legal tenant name, and client-chosen strings never become labels.
_UNKNOWN_TENANT = "?"
#: Ops a tick may reorder among themselves; every other op is a barrier.
_COMMUTING = frozenset({Op.INSERT, Op.QUERY, Op.AGGREGATE})
_OP_LABELS = {op: op.name.lower() for op in Op}
_TICK_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class ServerConfig:
    """Tunables for one :class:`ReproServer`."""

    host: str = "127.0.0.1"
    #: 0 = pick an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Engine config template for the catalog and every tenant (a
    #: tenant's recorded mode overrides it per namespace).
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Worker threads executing ticks: how many tenants run at once.
    workers: int = 8
    #: LRU cap on concurrently attached tenant engines (None = all).
    max_attached: Optional[int] = None
    #: Per-tenant request rate limit (requests/second; None = off).
    rate_limit: Optional[float] = None
    #: Token-bucket burst capacity (defaults to ``rate_limit``).
    burst: Optional[float] = None
    #: Per-tenant cap on admitted, unanswered requests (None = off).
    max_inflight: Optional[int] = 256
    #: How long a graceful stop waits for in-flight requests.
    drain_timeout_s: float = 5.0


class _Connection:
    """Per-connection session state."""

    __slots__ = ("writer", "hello_done", "outstanding", "idle", "closing")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.hello_done = False
        #: Requests queued on a lane or running in a tick, not yet answered.
        self.outstanding = 0
        self.idle = asyncio.Event()
        self.idle.set()
        self.closing = False

    def write(self, frames: bytes) -> None:
        """Queue whole frames (loop thread only, so they never interleave)."""
        if not self.closing:
            self.writer.write(frames)

    async def drain(self) -> None:
        try:
            await self.writer.drain()
        except ConnectionError:
            self.closing = True


class _Queued(NamedTuple):
    """One request waiting in, or running from, a lane."""

    conn: _Connection
    request: Request
    submitted: float
    #: Admission key to release once answered (None for admin ops).
    admitted: Optional[str]


class _Lane:
    """One tenant's queue; ``task`` runs it, one tick at a time."""

    __slots__ = ("pending", "task")

    def __init__(self, task: asyncio.Future):
        self.pending: list[_Queued] = []
        self.task = task


class ReproServer:
    """The network front-end: one TCP listener over a tenant catalog."""

    def __init__(self, path: str, config: Optional[ServerConfig] = None):
        self.path = path
        self.config = config or ServerConfig()
        self.catalog: Optional[TenantCatalog] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._admission = AdmissionController(
            rate=self.config.rate_limit,
            burst=self.config.burst,
            max_inflight=self.config.max_inflight,
        )
        self._connections: set[_Connection] = set()
        #: Lane key (tenant name; "" = the catalog lane) → lane. A lane
        #: exists only while it has work, so names a client made up
        #: leave nothing here.
        self._lanes: dict[str, _Lane] = {}
        self._draining = False
        self._started_monotonic: Optional[float] = None
        self.recovery_reports: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Open (recover) the catalog and all tenants, then listen."""
        loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-worker"
        )
        t0 = time.perf_counter()

        def _open_catalog() -> TenantCatalog:
            catalog = TenantCatalog(
                self.path,
                self.config.engine,
                max_attached=self.config.max_attached,
            )
            catalog.recover_all()
            # Live view: tenants attached (= recovered) after start keep
            # appearing in the RECOVERY op's answer.
            self.recovery_reports = catalog.recovery_reports
            return catalog

        self.catalog = await loop.run_in_executor(self._pool, _open_catalog)
        recovery_s = time.perf_counter() - t0
        registry = get_registry()
        registry.histogram("server_startup_recovery_seconds").observe(recovery_s)
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        self._started_monotonic = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: let the lanes empty, close engines."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [lane.task for lane in self._lanes.values()]
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.config.drain_timeout_s
            )
            for task in still_pending:
                task.cancel()
        for conn in list(self._connections):
            conn.closing = True
            conn.writer.close()
        loop = asyncio.get_running_loop()
        if self.catalog is not None:
            await loop.run_in_executor(None, self.catalog.close)
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        registry = get_registry()
        registry.counter("server_connections_total").inc()
        registry.gauge("server_connections_open").add(1)
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                decoder.feed(data)
                for payload in decoder.frames():
                    self._dispatch(conn, payload)
                await conn.drain()
                if conn.closing:
                    break
        except ProtocolError:
            # The stream is unrecoverable (oversized frame / CRC
            # mismatch / malformed payload): drop the connection.
            registry.counter(
                "server_rejected_total", reason="protocol_error"
            ).inc()
        except ConnectionError:
            pass
        finally:
            await conn.idle.wait()
            self._connections.discard(conn)
            registry.gauge("server_connections_open").add(-1)
            conn.closing = True
            writer.close()

    def _dispatch(self, conn: _Connection, payload: bytes) -> None:
        """Answer a session op or a refusal on the spot; queue the rest."""
        request = protocol.unpack_request(payload)  # ProtocolError closes
        tenant = request.tenant
        if not tenant:
            label = "-"
        elif self.catalog.exists(tenant):
            label = tenant
        else:
            label = _UNKNOWN_TENANT
        get_registry().counter(
            "server_requests_total", tenant=label, op=_OP_LABELS[request.op]
        ).inc()
        if request.op is Op.HELLO:
            conn.write(self._hello_response(conn, request))
        elif not conn.hello_done:
            conn.write(self._error(request, Status.NEED_HELLO, "say HELLO first"))
        elif request.op is Op.PING or request.op is Op.GOODBYE:
            conn.write(
                protocol.pack_response(request.op, request.request_id, Status.OK, {})
            )
            if request.op is Op.GOODBYE:
                conn.closing = True
        elif self._draining:
            conn.write(
                self._error(request, Status.SHUTTING_DOWN, "server is draining")
            )
        elif request.op in ADMIN_OPS:
            self._enqueue("", _Queued(conn, request, time.perf_counter(), None))
        elif not tenant:
            conn.write(
                self._error(request, Status.BAD_REQUEST, "data op without a tenant")
            )
        else:
            reason = self._admission.admit(label)
            if reason is not None:
                conn.write(self._error(request, _REJECT_STATUS[reason], reason))
            else:
                self._enqueue(
                    tenant, _Queued(conn, request, time.perf_counter(), label)
                )

    def _enqueue(self, key: str, queued: _Queued) -> None:
        queued.conn.outstanding += 1
        queued.conn.idle.clear()
        lane = self._lanes.get(key)
        if lane is None:
            # The task starts once this read chunk is dispatched, so its
            # first tick is everything the chunk held for the lane.
            lane = self._lanes[key] = _Lane(
                asyncio.ensure_future(self._run_lane(key))
            )
        lane.pending.append(queued)

    def _hello_response(self, conn: _Connection, request: Request) -> bytes:
        body = request.body if isinstance(request.body, dict) else {}
        version = body.get("version")
        if version != PROTOCOL_VERSION:
            return self._error(
                request,
                Status.WRONG_VERSION,
                f"protocol version {version!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})",
            )
        conn.hello_done = True
        return protocol.pack_response(
            request.op,
            request.request_id,
            Status.OK,
            {"version": PROTOCOL_VERSION, "server": "repro"},
        )

    @staticmethod
    def _error(request: Request, status: Status, message: str) -> bytes:
        return protocol.pack_response(
            request.op, request.request_id, status, message
        )

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    async def _run_lane(self, key: str) -> None:
        """Run the lane's ticks, one at a time, until it is empty."""
        loop = asyncio.get_running_loop()
        lane = self._lanes[key]
        while lane.pending:
            tick, lane.pending = lane.pending, []
            try:
                answers = await loop.run_in_executor(
                    self._pool, self._run_tick, key, tick
                )
            except Exception as exc:  # the tick itself died unexpectedly
                died = Status.INTERNAL, f"{type(exc).__name__}: {exc}"
                answers = [died] * len(tick)
            admitted = Counter(q.admitted for q in tick if q.admitted is not None)
            for label, n in admitted.items():
                self._admission.release(label, n)
            frames: dict[_Connection, list[bytes]] = {}
            for queued, (status, body) in zip(tick, answers):
                request = queued.request
                try:
                    frame = protocol.pack_response(
                        request.op, request.request_id, status, body
                    )
                except ProtocolError as exc:
                    frame = self._error(
                        request, Status.INTERNAL, f"unencodable response: {exc}"
                    )
                frames.setdefault(queued.conn, []).append(frame)
            for conn, answered in frames.items():
                conn.write(b"".join(answered))
                conn.outstanding -= len(answered)
                if not conn.outstanding:
                    conn.idle.set()
        # No await since the loop test: nothing can have joined a lane
        # that is about to be forgotten.
        del self._lanes[key]

    def _run_tick(self, tenant: str, tick: list[_Queued]) -> list:
        """Worker side: one ``(status, body)`` per request, in tick order.

        Requests run in arrival order, except that within a run of
        commuting ops the coalescible inserts go first; the barrier that
        ends a run executes after it, in place.
        """
        get_registry().histogram(
            "server_tick_requests", buckets=_TICK_BUCKETS
        ).observe(len(tick))
        assert self.catalog is not None
        try:
            # Pinned once for the tick. The catalog lane has no engine,
            # and a tenant that cannot be attached coalesces nothing:
            # each request meets that failure in ``_execute``, and gets
            # the status it would have got alone.
            engine = self.catalog.acquire(tenant) if tenant else None
        except Exception:
            engine = None
        try:
            answers: list = [None] * len(tick)
            start = 0
            for end in range(len(tick) + 1):
                if end < len(tick) and tick[end].request.op in _COMMUTING:
                    continue
                # tick[start:end] commute; tick[end], if there is one, is
                # the barrier that ends the run.
                if engine is not None:
                    self._insert_run(engine, tick, range(start, end), answers)
                for i in range(start, min(end + 1, len(tick))):
                    if answers[i] is None:
                        answers[i] = self._execute(tick[i].request, tick[i].submitted)
                start = end + 1
            return answers
        finally:
            if engine is not None:
                self.catalog.release(tenant)

    @staticmethod
    def _insert_run(
        engine: Database, tick: list[_Queued], run: range, answers: list
    ) -> None:
        """Answer the run's single-row INSERTs: one ``insert_each`` per table.

        Both per-request histograms are observed once per insert, as
        ``_execute`` does: the queue wait up to the batch call and, as
        exec time, the insert's share of it.
        """
        by_table: dict[str, list[int]] = {}
        for i in run:
            request = tick[i].request
            body = request.body
            # A malformed INSERT is left to ``_execute`` and its answer.
            if (
                request.op is Op.INSERT
                and isinstance(body, dict)
                and isinstance(body.get("table"), str)
                and isinstance(body.get("row"), dict)
            ):
                by_table.setdefault(body["table"], []).append(i)
        if not by_table:
            return
        registry = get_registry()
        queue_h = registry.histogram("server_queue_seconds", op="insert")
        exec_h = registry.histogram("server_exec_seconds", op="insert")
        for table, positions in by_table.items():
            t0 = time.perf_counter()
            outcomes = engine.insert_each(
                table, [tick[i].request.body["row"] for i in positions]
            )
            share = (time.perf_counter() - t0) / len(positions)
            for i, outcome in zip(positions, outcomes):
                if isinstance(outcome, Exception):
                    answers[i] = _failure(outcome)
                else:
                    answers[i] = Status.OK, _insert_body(outcome)
                queue_h.observe(t0 - tick[i].submitted)
                exec_h.observe(share)

    def _execute(self, request: Request, submitted: float):
        """Worker-side execution: returns ``(status, body)``."""
        registry = get_registry()
        op_label = _OP_LABELS[request.op]
        registry.histogram("server_queue_seconds", op=op_label).observe(
            time.perf_counter() - submitted
        )
        t0 = time.perf_counter()
        try:
            return Status.OK, self._execute_op(request)
        except Exception as exc:
            return _failure(exc)
        finally:
            registry.histogram("server_exec_seconds", op=op_label).observe(
                time.perf_counter() - t0
            )

    # -- op implementations (worker threads) ----------------------------

    def _execute_op(self, request: Request):
        op, body = request.op, request.body
        if not isinstance(body, dict):
            raise ProtocolError(f"{op.name} body must be a dict, got {body!r}")
        assert self.catalog is not None
        if op is Op.CREATE_TENANT:
            if body.get("shards", 1) != 1:
                raise ProtocolError("a tenant is one engine: shards must be 1")
            return self.catalog.create_tenant(
                body["name"],
                mode=DurabilityMode(body["mode"]) if body.get("mode") else None,
            )
        if op is Op.DROP_TENANT:
            self.catalog.drop_tenant(body["name"])
            return {}
        if op is Op.LIST_TENANTS:
            return {
                "tenants": self.catalog.tenants(),
                "attached": self.catalog.attached_names(),
            }
        if op is Op.RECOVERY:
            name = body.get("tenant")
            if name:
                if name not in self.recovery_reports:
                    raise NoSuchTenant(f"no recovery report for tenant {name!r}")
                return {name: self.recovery_reports[name]}
            return dict(self.recovery_reports)
        if op is Op.METRICS:
            if body.get("format") == "prometheus":
                return {"text": to_prometheus(get_registry())}
            return {"registry": get_registry().snapshot()}
        # -- data plane --------------------------------------------------
        if op is Op.CREATE_TABLE and (extra := body.keys() - {"table", "schema"}):
            raise ProtocolError(
                f"CREATE_TABLE takes table and schema, not {sorted(extra)}"
            )
        tenant = request.tenant
        engine = self.catalog.acquire(tenant)
        try:
            return self._tenant_op(engine, op, body)
        finally:
            self.catalog.release(tenant)

    @staticmethod
    def _tenant_op(engine: Database, op: Op, body: dict):
        if op is Op.CREATE_TABLE:
            schema = {
                name: DataType(dtype) for name, dtype in body["schema"]
            }
            engine.create_table(body["table"], schema)
            return {}
        if op is Op.DROP_TABLE:
            engine.drop_table(body["table"])
            return {}
        if op is Op.CREATE_INDEX:
            engine.create_index(body["table"], body["column"])
            return {}
        if op is Op.TABLES:
            return {"tables": engine.table_names}
        if op is Op.INSERT:
            # Only a body no tick can coalesce gets here; it fails.
            return _insert_body(engine.insert(body["table"], body["row"]))
        if op is Op.INSERT_MANY:
            shape = dict if "columns" in body else list
            batch = body["columns" if shape is dict else "rows"]
            if not isinstance(batch, shape) or shape is dict and not all(
                isinstance(column, list) for column in batch.values()
            ):
                raise ProtocolError("INSERT_MANY: a list of rows or a dict of lists")
            return {"count": len(engine.insert_many(body["table"], batch))}
        if op is Op.QUERY:
            predicate = protocol.predicate_from_wire(body.get("predicate"))
            result = engine.query(body["table"], predicate)
            total = len(result)
            limit = body.get("limit")
            if limit is not None:  # decode only the rows ``[:limit]`` keeps
                result = result.head(len(range(total)[: int(limit)]))
            return {"rows": result.rows(body.get("columns")), "count": total}
        if op is Op.AGGREGATE:
            predicate = protocol.predicate_from_wire(body.get("predicate"))
            value = aggregate(
                engine.query(body["table"], predicate),
                body["func"],
                body.get("column"),
                body.get("group_by"),
            )
            if isinstance(value, dict):
                return {"groups": value}
            return {"value": value}
        if op is Op.STATS:
            return engine.stats()
        raise ProtocolError(f"unhandled opcode {op.name}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Process registry plus server-level state (mirrors
        ``Database.metrics_snapshot``)."""
        out = {
            "registry": get_registry().snapshot(),
            "tenants": (
                self.catalog.tenant_names() if self.catalog is not None else []
            ),
            "attached": (
                self.catalog.attached_names() if self.catalog is not None else []
            ),
        }
        if self.recovery_reports:
            out["recovery"] = dict(self.recovery_reports)
        return out


_REJECT_STATUS = {
    "rate_limited": Status.RATE_LIMITED,
    "too_many_inflight": Status.TOO_MANY_INFLIGHT,
}


def _insert_body(ref: int) -> dict:
    """An INSERT's answer. Rowrefs are uint64 with the delta bit up top —
    not int64-encodable and not addressable over the wire anyway; ship
    the unpacked position for observability."""
    is_delta, row = unpack_rowref(ref)
    return {"row": int(row), "delta": bool(is_delta)}


def _failure(exc: Exception) -> tuple[Status, str]:
    """The one exception → ``(status, message)`` table, for an exception
    raised under ``_execute`` or returned by ``insert_each``."""
    if isinstance(exc, NoSuchTenant):
        return Status.NO_SUCH_TENANT, str(exc)
    if isinstance(exc, TenantExists):
        return Status.TENANT_EXISTS, str(exc)
    if isinstance(exc, InvalidTenantName):
        return Status.BAD_REQUEST, str(exc)
    if isinstance(exc, (TenantError, TransactionConflict)):
        return Status.CONFLICT, str(exc)
    if isinstance(exc, KeyError):
        message = str(exc.args[0]) if exc.args else str(exc)
        if "no table" in message:
            return Status.NO_SUCH_TABLE, message
        return Status.BAD_REQUEST, message
    if isinstance(exc, (TypeError, ValueError)):
        return Status.BAD_REQUEST, str(exc)
    get_registry().counter("server_internal_errors_total").inc()
    return Status.INTERNAL, f"{type(exc).__name__}: {exc}"


class ServerThread:
    """Run a :class:`ReproServer` on a background event-loop thread.

    The in-process harness tests and benchmarks drive: ``start()``
    blocks until the listener is up and returns the bound port;
    ``stop()`` runs the graceful drain and joins the thread.
    """

    def __init__(self, path: str, config: Optional[ServerConfig] = None):
        self.server = ReproServer(path, config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopping = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> int:
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self.server.port

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._request_stop = stop_event  # set via call_soon_threadsafe
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if not self._stopping.is_set():
            self._stopping.set()
            try:
                self._loop.call_soon_threadsafe(self._request_stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
