"""Asyncio TCP front-end over the tenant catalog.

Threading model — the part worth stating precisely:

* the **event loop** owns sockets, framing, and admission. It never
  calls into the engine: decoding a frame, checking a token bucket,
  and writing a response are all O(request) work.
* every engine call (catalog attach, DDL, inserts, scans) is dispatched
  to a **worker thread pool** via ``run_in_executor``. The engine
  holds the GIL while encoding batches or scanning, so running it on
  the loop would stall every connection; on a worker it only stalls
  other workers (and the GIL arbitrates as it does for the embedded
  multi-threaded API, which the engine already supports).
* **pipelining**: a connection may send many requests without waiting;
  each becomes its own task, executes on the pool, and responds when
  done — responses carry the request id and may complete out of order.
  A per-connection write lock keeps response frames from interleaving.

Shutdown is a graceful drain: stop accepting, fail new requests with
``SHUTTING_DOWN``, wait (bounded) for in-flight requests, then close
every tenant engine cleanly — which is what makes the *next* start an
instant restart. A SIGKILL instead of a drain is the crash case the
whole system is built for: on restart the catalog recovers first, then
every tenant namespace, and acked writes are all there.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.core import DurabilityMode, Engine, EngineConfig
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
from repro.storage.types import DataType
from repro.txn.errors import TransactionConflict

_READ_CHUNK = 256 * 1024


@dataclass
class ServerConfig:
    """Tunables for one :class:`ReproServer`."""

    host: str = "127.0.0.1"
    #: 0 = pick an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Engine config template for the catalog and every tenant (a
    #: tenant's recorded shard count / mode override it per namespace).
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Worker threads executing engine calls.
    workers: int = 8
    #: LRU cap on concurrently attached tenant engines (None = all).
    max_attached: Optional[int] = None
    #: Per-tenant request rate limit (requests/second; None = off).
    rate_limit: Optional[float] = None
    #: Token-bucket burst capacity (defaults to ``rate_limit``).
    burst: Optional[float] = None
    #: Per-tenant cap on concurrently executing requests (None = off).
    max_inflight: Optional[int] = 256
    #: How long a graceful stop waits for in-flight requests.
    drain_timeout_s: float = 5.0


class _Connection:
    """Per-connection session state."""

    __slots__ = ("writer", "hello_done", "tasks", "write_lock", "closing")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.hello_done = False
        self.tasks: set[asyncio.Task] = set()
        self.write_lock = asyncio.Lock()
        self.closing = False

    async def send(self, frame: bytes) -> None:
        async with self.write_lock:
            if self.closing:
                return
            self.writer.write(frame)
            try:
                await self.writer.drain()
            except ConnectionError:
                self.closing = True


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
        """Graceful drain: finish in-flight requests, close engines."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {
            task for conn in list(self._connections) for task in conn.tasks
        }
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
                    await self._dispatch(conn, payload)
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
            if conn.tasks:
                await asyncio.wait(conn.tasks)
            self._connections.discard(conn)
            registry.gauge("server_connections_open").add(-1)
            conn.closing = True
            writer.close()

    async def _dispatch(self, conn: _Connection, payload: bytes) -> None:
        request = protocol.unpack_request(payload)  # ProtocolError closes
        get_registry().counter(
            "server_requests_total",
            tenant=request.tenant or "-",
            op=request.op.name.lower(),
        ).inc()
        if request.op is Op.HELLO:
            await conn.send(self._hello_response(conn, request))
            return
        if not conn.hello_done:
            await conn.send(
                self._error(request, Status.NEED_HELLO, "say HELLO first")
            )
            return
        if request.op is Op.PING:
            await conn.send(
                protocol.pack_response(request.op, request.request_id, Status.OK, {})
            )
            return
        if request.op is Op.GOODBYE:
            await conn.send(
                protocol.pack_response(request.op, request.request_id, Status.OK, {})
            )
            conn.closing = True
            return
        if self._draining:
            await conn.send(
                self._error(request, Status.SHUTTING_DOWN, "server is draining")
            )
            return
        task = asyncio.ensure_future(self._run_request(conn, request))
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

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

    async def _run_request(self, conn: _Connection, request: Request) -> None:
        admitted_tenant: Optional[str] = None
        if request.op not in ADMIN_OPS:
            if not request.tenant:
                await conn.send(
                    self._error(
                        request, Status.BAD_REQUEST, "data op without a tenant"
                    )
                )
                return
            reason = self._admission.admit(request.tenant)
            if reason is not None:
                await conn.send(self._error(request, _REJECT_STATUS[reason], reason))
                return
            admitted_tenant = request.tenant
        loop = asyncio.get_running_loop()
        submitted = time.perf_counter()
        try:
            status, body = await loop.run_in_executor(
                self._pool, self._execute, request, submitted
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # worker died unexpectedly
            status, body = Status.INTERNAL, f"{type(exc).__name__}: {exc}"
        finally:
            if admitted_tenant is not None:
                self._admission.release(admitted_tenant)
        try:
            frame = protocol.pack_response(
                request.op, request.request_id, status, body
            )
        except ProtocolError as exc:
            frame = self._error(
                request, Status.INTERNAL, f"unencodable response: {exc}"
            )
        await conn.send(frame)

    def _execute(self, request: Request, submitted: float):
        """Worker-side execution: returns ``(status, body)``."""
        registry = get_registry()
        op_label = request.op.name.lower()
        registry.histogram("server_queue_seconds", op=op_label).observe(
            time.perf_counter() - submitted
        )
        t0 = time.perf_counter()
        try:
            return Status.OK, self._execute_op(request)
        except (NoSuchTenant,) as exc:
            return Status.NO_SUCH_TENANT, str(exc)
        except TenantExists as exc:
            return Status.TENANT_EXISTS, str(exc)
        except InvalidTenantName as exc:
            return Status.BAD_REQUEST, str(exc)
        except TenantError as exc:
            return Status.CONFLICT, str(exc)
        except TransactionConflict as exc:
            return Status.CONFLICT, str(exc)
        except ProtocolError as exc:
            return Status.BAD_REQUEST, str(exc)
        except KeyError as exc:
            message = str(exc.args[0]) if exc.args else str(exc)
            if "no table" in message:
                return Status.NO_SUCH_TABLE, message
            return Status.BAD_REQUEST, message
        except (TypeError, ValueError) as exc:
            return Status.BAD_REQUEST, str(exc)
        except Exception as exc:
            registry.counter("server_internal_errors_total").inc()
            return Status.INTERNAL, f"{type(exc).__name__}: {exc}"
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
            return self.catalog.create_tenant(
                body["name"],
                shards=body.get("shards"),
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
        tenant = request.tenant
        engine = self.catalog.acquire(tenant)
        try:
            return self._tenant_op(engine, op, body)
        finally:
            self.catalog.release(tenant)

    @staticmethod
    def _tenant_op(engine: Engine, op: Op, body: dict):
        if op is Op.CREATE_TABLE:
            schema = {
                name: DataType(dtype) for name, dtype in body["schema"]
            }
            engine.create_table(
                body["table"], schema, partition_key=body.get("partition_key")
            )
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
            from repro.storage.table import unpack_rowref

            ref = engine.insert(body["table"], body["row"])
            # Rowrefs are uint64 with the delta bit up top — not
            # int64-encodable and not addressable over the wire anyway;
            # ship the unpacked position for observability.
            is_delta, row = unpack_rowref(ref)
            return {"row": int(row), "delta": bool(is_delta)}
        if op is Op.INSERT_MANY:
            rows = body["rows"]
            if not isinstance(rows, list):
                raise ProtocolError("INSERT_MANY rows must be a list")
            engine.insert_many(body["table"], rows)
            return {"count": len(rows)}
        if op is Op.QUERY:
            predicate = protocol.predicate_from_wire(body.get("predicate"))
            result = engine.query(body["table"], predicate)
            total = len(result)
            names = body.get("columns")
            rows = result.rows(names)
            limit = body.get("limit")
            if limit is not None:
                rows = rows[: int(limit)]
            return {"rows": rows, "count": total}
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
        """Process registry plus server-level state (mirrors the engine
        facades' ``metrics_snapshot``)."""
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
