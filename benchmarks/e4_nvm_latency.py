"""E4 — sensitivity to NVM write latency.

Reconstructed figure: throughput of the NVM engine as simulated NVM
write latency rises (1x, 2x, 4x, 8x the base device latency), for a
write-heavy and a read-heavy mix.

Expected shape: write-heavy throughput degrades monotonically with the
latency multiplier; read-heavy degrades much less (reads are not gated
on flushes). The injected per-flush latency uses a microsecond scale so
the effect is visible above the interpreter overhead — constants are
inflated, the *shape* is preserved (see DESIGN.md substitutions).
"""

from __future__ import annotations

import tempfile

from repro.core import Database, DurabilityMode
from repro.nvm.latency import LatencyModel
from repro.workloads.ycsb import YcsbConfig, YcsbDriver

from benchmarks.harness import config_for

TITLE = "E4: throughput vs simulated NVM write latency"
SERIES = ("latency_multiplier", ["write_heavy_ops_s", "read_heavy_ops_s"])

BASE_FLUSH_NS = 3_000  # 3 us injected per flush at multiplier 1
WRITE_HEAVY = dict(read_ratio=0.2, update_ratio=0.6, insert_ratio=0.2)
READ_HEAVY = dict(read_ratio=0.95, update_ratio=0.05, insert_ratio=0.0)


def _throughput(multiplier: int, mix: dict, operations: int) -> tuple[float, float]:
    """ops/s and the modelled NVM nanoseconds of one run."""
    latency = LatencyModel(injected_flush_ns=BASE_FLUSH_NS, write_multiplier=multiplier)
    with tempfile.TemporaryDirectory(prefix="e4-") as path:
        db = Database(path, config_for(DurabilityMode.NVM, latency=latency))
        driver = YcsbDriver(db, YcsbConfig(records=300, seed=5, **mix))
        driver.load()
        rate = driver.run(operations).ops_per_second
        modelled_ns = db._pool.stats.modelled_ns()
        db.close()
    return rate, modelled_ns


def run(quick: bool) -> list[dict]:
    multipliers = [1, 4] if quick else [1, 2, 4, 8]
    operations = 300 if quick else 900
    rows_out = []
    for multiplier in multipliers:
        write_ops, modelled_ns = _throughput(multiplier, WRITE_HEAVY, operations)
        read_ops, _ = _throughput(multiplier, READ_HEAVY, operations)
        rows_out.append(
            {
                "latency_multiplier": multiplier,
                "write_heavy_ops_s": write_ops,
                "read_heavy_ops_s": read_ops,
                "modelled_nvm_ms": modelled_ns / 1e6,
            }
        )
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    if quick:  # 1x vs 4x at 300 operations is within run-to-run noise
        return
    first, last = rows[0], rows[-1]
    # Write-heavy throughput clearly suffers at the highest multiplier.
    assert last["write_heavy_ops_s"] < first["write_heavy_ops_s"] * 0.8
    # Read-heavy is less sensitive than write-heavy.
    write_drop = last["write_heavy_ops_s"] / first["write_heavy_ops_s"]
    read_drop = last["read_heavy_ops_s"] / first["read_heavy_ops_s"]
    assert read_drop > write_drop
