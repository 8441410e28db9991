"""E3 — runtime overhead of durability (throughput by mode).

Reconstructed figure: transaction throughput of the same YCSB-style
workload under NONE (no durability), NVM (Hyrise-NV), LOG with
synchronous commit, and LOG with group commit of 32. Both LOG variants
write to the modelled WAL device E12 uses: every fsync costs a further
3 ms (``harness.WAL_FSYNC_S``), the wait for stable storage that a
log-based engine pays and NVM does not.

Expected shape: NONE >= NVM > LOG(sync); group commit narrows (but does
not close) LOG's gap; NVM pays only cache-line flush traffic, so it
stays within a modest factor of NONE even on a write-heavy mix;
read-heavy mixes narrow every gap.
"""

from __future__ import annotations

import tempfile

from repro.core import Database, DurabilityMode
from repro.workloads.ycsb import YcsbConfig, YcsbDriver

from benchmarks.harness import WAL_FSYNC_S, config_for

TITLE = "E3: YCSB throughput by durability mode (400 records)"

VARIANTS = [
    ("none", DurabilityMode.NONE, {}),
    ("nvm", DurabilityMode.NVM, {}),
    ("log_sync", DurabilityMode.LOG, {"group_commit_size": 1}),
    ("log_group32", DurabilityMode.LOG, {"group_commit_size": 32}),
]
MIXES = {
    "write_heavy": dict(read_ratio=0.2, update_ratio=0.6, insert_ratio=0.2),
    "read_heavy": dict(read_ratio=0.9, update_ratio=0.05, insert_ratio=0.05),
}


def _ops_per_second(mode, overrides: dict, mix: dict, operations: int) -> float:
    if mode is DurabilityMode.LOG:
        overrides = {**overrides, "wal_fsync_delay_s": WAL_FSYNC_S}
    with tempfile.TemporaryDirectory(prefix="e3-") as path:
        db = Database(path, config_for(mode, **overrides))
        driver = YcsbDriver(db, YcsbConfig(records=400, seed=7, **mix))
        driver.load()
        rate = driver.run(operations).ops_per_second
        db.close()
    return rate


def run(quick: bool) -> list[dict]:
    operations = 400 if quick else 1200
    rows_out = []
    for mix_name, mix in MIXES.items():
        record = {"workload": mix_name, "operations": operations}
        for tag, mode, overrides in VARIANTS:
            record[f"{tag}_ops_s"] = _ops_per_second(mode, overrides, mix, operations)
        record["nvm_vs_none"] = record["nvm_ops_s"] / record["none_ops_s"]
        record["logsync_vs_none"] = record["log_sync_ops_s"] / record["none_ops_s"]
        rows_out.append(record)
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    wh, rh = rows
    assert wh["none_ops_s"] >= wh["nvm_ops_s"] * 0.8  # NONE is the ceiling
    assert wh["nvm_ops_s"] > wh["log_sync_ops_s"]  # NVM beats synchronous logging
    assert wh["log_group32_ops_s"] > wh["log_sync_ops_s"]  # group commit helps
    # Read-heavy narrows every gap.
    assert rh["logsync_vs_none"] > wh["logsync_vs_none"]
