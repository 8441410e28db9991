"""End-to-end server smoke: workload, SIGKILL, instant restart.

``python -m repro.server.smoke`` (the CI server-smoke job):

1. start a real server process on a fresh directory;
2. create two tenants with *same-named* tables and drive a mixed
   workload (inserts, batches, queries, aggregates) over several
   client connections, recording exactly what was acked per tenant;
3. SIGKILL the server mid-service, restart it immediately, and measure
   the client-observed downtime (kill → first successful PING);
4. assert every acked write survived, per tenant, and that the two
   namespaces stayed isolated;
5. assert the per-tenant request metrics are visible over the wire.

Exits non-zero on any violation; prints a one-line summary otherwise.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from typing import Optional

from repro.query.predicate import Eq
from repro.server.client import ReproClient, wait_for_server
from repro.server.proc import free_port, spawn_server
from repro.server.protocol import Op

TENANTS = ("acme", "globex")
TABLE = "orders"  # deliberately the same name in both tenants
SCHEMA = [["id", "int64"], ["item", "string"], ["qty", "int64"]]


def run_smoke(
    rows_per_tenant: int = 400,
    *,
    mode: str = "nvm",
    downtime_budget_s: float = 1.0,
    path: Optional[str] = None,
) -> dict:
    base = path or tempfile.mkdtemp(prefix="server-smoke-")
    port = free_port()
    proc = spawn_server(base, port, mode=mode)
    acked: dict[str, int] = {}
    try:
        wait_for_server("127.0.0.1", port)
        with ReproClient("127.0.0.1", port) as admin:
            for tenant in TENANTS:
                admin.create_tenant(tenant)
                admin.create_table(TABLE, SCHEMA, tenant=tenant)
        # Mixed workload: each tenant gets distinct payloads so
        # cross-tenant leakage would be visible, not silent.
        for tenant in TENANTS:
            with ReproClient("127.0.0.1", port, tenant=tenant) as client:
                rows = [
                    {"id": i, "item": f"{tenant}-item-{i % 7}", "qty": i % 13}
                    for i in range(rows_per_tenant)
                ]
                count = client.insert_many(TABLE, rows[:-50])
                # One pipeline, so the server coalesces the rows into
                # ticks and the kill below follows shared commits.
                responses = client.pipeline(
                    [(Op.INSERT, {"table": TABLE, "row": row}) for row in rows[-50:]]
                )
                assert all(r.ok for r in responses), responses
                count += len(responses)
                assert client.aggregate(TABLE, "count") == count
                acked[tenant] = count
        # Kill -9 mid-service and restart immediately: the measured
        # figure is what a retrying client observes, process start and
        # recovery included.
        t_kill = time.monotonic()
        proc.kill()
        proc.wait(timeout=30)
        proc = spawn_server(base, port, mode=mode)
        wait_for_server("127.0.0.1", port, timeout=60)
        downtime_s = time.monotonic() - t_kill

        problems: list[str] = []
        with ReproClient("127.0.0.1", port) as client:
            for tenant in TENANTS:
                got = client.aggregate(TABLE, "count", tenant=tenant)
                if got != acked[tenant]:
                    problems.append(
                        f"{tenant}: acked {acked[tenant]} rows, "
                        f"recovered {got}"
                    )
                leaked = client.query_full(
                    TABLE,
                    Eq("item", f"{TENANTS[0] if tenant != TENANTS[0] else TENANTS[1]}-item-0"),
                    limit=1,
                    tenant=tenant,
                )["count"]
                if leaked:
                    problems.append(f"{tenant}: sees another tenant's rows")
            reports = client.recovery_reports()
            for tenant in TENANTS:
                if tenant not in reports:
                    problems.append(f"{tenant}: no recovery report")
            metrics = client.metrics()
            for tenant in TENANTS:
                if not any(
                    key.startswith("server_requests_total")
                    and f'tenant="{tenant}"' in key
                    for key in metrics
                ):
                    problems.append(f"{tenant}: no per-tenant request metric")
        if downtime_s > downtime_budget_s:
            problems.append(
                f"client-observed downtime {downtime_s:.3f}s exceeds "
                f"the {downtime_budget_s:.1f}s budget"
            )
        return {
            "mode": mode,
            "rows_per_tenant": acked,
            "downtime_s": downtime_s,
            "problems": problems,
        }
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        if path is None:
            shutil.rmtree(base, ignore_errors=True)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.server.smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--rows", type=int, default=400)
    parser.add_argument("--mode", default="nvm", choices=["nvm", "log"])
    parser.add_argument(
        "--downtime-budget", type=float, default=1.0,
        help="max acceptable client-observed restart downtime (s)",
    )
    args = parser.parse_args(argv)
    result = run_smoke(
        args.rows, mode=args.mode, downtime_budget_s=args.downtime_budget
    )
    for problem in result["problems"]:
        print(f"FAIL: {problem}", file=sys.stderr)
    status = "FAIL" if result["problems"] else "OK"
    print(
        f"{status}: mode={result['mode']} rows={result['rows_per_tenant']} "
        f"downtime={result['downtime_s'] * 1000:.0f}ms"
    )
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
