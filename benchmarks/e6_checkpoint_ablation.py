"""E6 — checkpointing ablation: restart cost vs transaction history.

Reconstructed figure: the log-based engine's restart time as a function
of the number of committed transactions since startup, with and without
a checkpoint, against the NVM engine.

Expected shape: log-only replay grows linearly with *history length*
(every transaction is replayed); a checkpoint bounds the replay to the
tail and makes restart proportional to *data* instead; NVM stays flat
regardless of either.
"""

from __future__ import annotations

import tempfile

from repro.core import Database, DurabilityMode
from repro.query.predicate import Eq
from repro.workloads.generator import RowGenerator

from benchmarks.harness import config_for, timed_open

TITLE = "E6: restart time vs transaction history"
SERIES = ("committed_txns", ["log_only_s", "nvm_s"])

VARIANTS = [
    ("log_only", DurabilityMode.LOG, False, {"group_commit_size": 0}),
    ("log_ckpt", DurabilityMode.LOG, True, {"group_commit_size": 0}),
    ("nvm", DurabilityMode.NVM, False, {}),
]


def _run_history(path: str, cfg, txns: int, checkpoint: bool) -> None:
    """Commit ``txns`` single-row transactions (every fifth also updates)."""
    db = Database(path, cfg)
    gen = RowGenerator(seed=13)
    db.create_table("events", RowGenerator.SCHEMA)
    for i in range(txns):
        with db.begin() as txn:
            txn.insert("events", gen.row())
            if i % 5 == 4:
                refs = txn.query("events", Eq("id", i - 2)).refs()
                if refs:
                    txn.update("events", refs[0], {"quantity": 1})
    if checkpoint:
        db.checkpoint()
    db.close()


def run(quick: bool) -> list[dict]:
    history = [250, 1_000] if quick else [500, 1_000, 2_000, 4_000]
    rows_out = []
    with tempfile.TemporaryDirectory(prefix="e6-") as base:
        for txns in history:
            record = {"committed_txns": txns}
            for tag, mode, checkpoint, overrides in VARIANTS:
                path = f"{base}/{tag}-{txns}"
                cfg = config_for(mode, **overrides)
                _run_history(path, cfg, txns, checkpoint)
                record[f"{tag}_s"], db = timed_open(path, cfg)
                if mode is DurabilityMode.LOG:
                    record[f"{tag}_replayed"] = db.last_recovery.log_records_replayed
                db.close()
            rows_out.append(record)
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    first, last = rows[0], rows[-1]
    # A checkpoint removes the replay tail entirely here.
    assert last["log_ckpt_replayed"] == 0
    # Log-only replay grows with history (quick's 4x history is too
    # close to this bar to hold on every run).
    assert quick or last["log_only_s"] > first["log_only_s"] * 3
    assert last["log_ckpt_s"] < last["log_only_s"]
    # NVM is flat and fastest.
    assert last["nvm_s"] < last["log_ckpt_s"]
    assert last["nvm_s"] < first["nvm_s"] * 5 + 0.05
