"""E15 measurement core: served throughput and client-observed restart.

Two experiments over a *real* server process (spawned via
``python -m repro.server``, killed with real signals):

* **throughput vs connections** — N client threads, one connection
  each, drive pipelined windows of single-row inserts mixed with point
  queries against one tenant; the figure is aggregate completed
  requests/second as connections grow (one tenant is one lane, so
  more connections make its ticks bigger rather than keep more workers
  busy; the point query has no index, so its cost grows with the rows
  the connections have inserted).
* **restart downtime as a client sees it** — load a tenant, SIGKILL
  the server mid-service, restart it immediately, and measure kill →
  first successful response from a reconnecting client. The paper's
  instant-restart claim, measured at the socket: process start +
  catalog recovery + tenant recovery, not just replay wall time.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from typing import Optional

from repro.server.client import ReproClient, wait_for_server
from repro.server.proc import free_port, spawn_server
from repro.server.protocol import Op

TENANT = "bench"
TABLE = "items"
SCHEMA = [["id", "int64"], ["grp", "string"], ["qty", "int64"]]

_HOST = "127.0.0.1"


def _start(base: str, port: int, *, mode: str, workers: int = 8, max_inflight=None):
    proc = spawn_server(
        base, port, mode=mode, workers=workers, max_inflight=max_inflight
    )
    wait_for_server(_HOST, port, timeout=60)
    return proc


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except Exception:
            proc.kill()
            proc.wait(timeout=30)


def measure_throughput(
    connections: int,
    requests_per_conn: int,
    *,
    mode: str = "nvm",
    pipeline_depth: int = 32,
    query_every: int = 5,
    path: Optional[str] = None,
) -> dict:
    """Aggregate req/s over ``connections`` pipelining client threads.

    Each thread issues windows of ``pipeline_depth`` requests — a
    single-row INSERT per request, every ``query_every``-th replaced by
    a point QUERY — and counts completed (OK) responses. Returns the
    aggregate rate plus the error/rejection tally.
    """
    base = path or tempfile.mkdtemp(prefix="e15-tput-")
    port = free_port()
    # The curve measures serving capacity, so the inflight quota must
    # cover the offered load — quota *behavior* is its own test
    # (tests/test_server.py) and rejection accounting stays visible in
    # requests_failed here regardless.
    proc = _start(
        base, port, mode=mode, max_inflight=2 * connections * pipeline_depth
    )
    try:
        with ReproClient(_HOST, port) as admin:
            admin.create_tenant(TENANT)
            admin.create_table(TABLE, SCHEMA, tenant=TENANT)

        ok = [0] * connections
        failed = [0] * connections
        barrier = threading.Barrier(connections + 1)

        def worker(slot: int) -> None:
            client = ReproClient(_HOST, port, tenant=TENANT)
            try:
                barrier.wait()
                sent = 0
                while sent < requests_per_conn:
                    window = min(pipeline_depth, requests_per_conn - sent)
                    requests = []
                    for i in range(window):
                        n = sent + i
                        if query_every and n % query_every == query_every - 1:
                            requests.append(
                                (
                                    Op.QUERY,
                                    {
                                        "table": TABLE,
                                        "predicate": ["eq", "id", slot * 1_000_000 + n - 1],
                                        "limit": 1,
                                    },
                                )
                            )
                        else:
                            requests.append(
                                (
                                    Op.INSERT,
                                    {
                                        "table": TABLE,
                                        "row": {
                                            "id": slot * 1_000_000 + n,
                                            "grp": f"g{n % 7}",
                                            "qty": n % 13,
                                        },
                                    },
                                )
                            )
                    for response in client.pipeline(requests):
                        if response.ok:
                            ok[slot] += 1
                        else:
                            failed[slot] += 1
                    sent += window
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(slot,), daemon=True)
            for slot in range(connections)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - t0
        total_ok = sum(ok)
        return {
            "mode": mode,
            "connections": connections,
            "pipeline_depth": pipeline_depth,
            "requests_ok": total_ok,
            "requests_failed": sum(failed),
            "wall_s": wall_s,
            "req_per_s": total_ok / wall_s if wall_s > 0 else 0.0,
        }
    finally:
        _stop(proc)
        if path is None:
            shutil.rmtree(base, ignore_errors=True)


def measure_restart_downtime(
    rows: int,
    *,
    mode: str = "nvm",
    batch: int = 5000,
    path: Optional[str] = None,
) -> dict:
    """SIGKILL → first successful post-restart response, in seconds.

    Loads ``rows`` rows into one tenant (acked batches), kills the
    server process, restarts it immediately, and polls with fresh
    connections until a PING round-trips; then verifies every acked
    row survived and reads the tenant's recovery report for the
    engine-side recovery seconds (the rest of the downtime is process
    start + catalog open + listen).
    """
    base = path or tempfile.mkdtemp(prefix="e15-restart-")
    port = free_port()
    proc = _start(base, port, mode=mode)
    try:
        with ReproClient(_HOST, port) as admin:
            admin.create_tenant(TENANT)
            admin.create_table(TABLE, SCHEMA, tenant=TENANT)
        acked = 0
        with ReproClient(_HOST, port, tenant=TENANT) as client:
            while acked < rows:
                n = min(batch, rows - acked)
                payload = [
                    {"id": acked + i, "grp": f"g{(acked + i) % 7}", "qty": i % 13}
                    for i in range(n)
                ]
                acked += client.insert_many(TABLE, payload)

        t_kill = time.monotonic()
        proc.kill()
        proc.wait(timeout=30)
        proc = spawn_server(base, port, mode=mode)
        waited = wait_for_server(_HOST, port, timeout=120)
        downtime_s = time.monotonic() - t_kill

        with ReproClient(_HOST, port) as client:
            recovered = client.aggregate(TABLE, "count", tenant=TENANT)
            report = client.recovery_reports(TENANT)[TENANT]
        if recovered != acked:
            raise AssertionError(
                f"acked {acked} rows, recovered {recovered} ({mode})"
            )
        return {
            "mode": mode,
            "rows": rows,
            "downtime_s": downtime_s,
            "probe_wait_s": waited,
            "engine_recovery_s": report.get("total_seconds", 0.0),
            "recovered_rows": recovered,
        }
    finally:
        _stop(proc)
        if path is None:
            shutil.rmtree(base, ignore_errors=True)


def throughput_rows(
    connection_counts, requests_per_conn: int, *, mode: str = "nvm"
) -> list[dict]:
    return [
        {"section": "throughput", **measure_throughput(n, requests_per_conn, mode=mode)}
        for n in connection_counts
    ]


def restart_rows(rows: int, modes=("nvm", "log")) -> list[dict]:
    return [
        {"section": "restart", **measure_restart_downtime(rows, mode=mode)}
        for mode in modes
    ]
