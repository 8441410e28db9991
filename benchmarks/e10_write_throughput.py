"""E10 — bulk insert throughput: the vectorized batch write path.

The batch write path replaces per-row work with per-batch work at every
layer: one validation pass and one dictionary probe pass per column
(only the misses appended, in one extend), one
coalesced NVM flush per touched chunk (instead of one per cell), one
batched WAL record per (txn, table), and one range store per delta
chunk at commit. The paper's Figure 7 shape — logging cost dominating
small writes — shows up here as the gap between batch=1 and batch≥1024.

Two tables:

* **E10** — rows/s by durability mode × batch size, with the speedup of
  each batch size over row-at-a-time inserts in the same mode. The
  headline claim: ≥5× at batch 1024 for the NVM engine (and for the
  sync log engine, where group commit amortisation is the textbook win).
* **E10b** — NVM flush calls per batch on a 3×int64 table: flush
  traffic must scale with touched chunks, not rows×columns, so
  flushes/row falls as batches grow.
"""

from __future__ import annotations

import tempfile
import time

from repro.core import Database, DurabilityMode
from repro.storage.types import DataType

from benchmarks.harness import ORDERS_SCHEMA, config_for, order_rows

TITLE = "E10: bulk insert throughput vs batch size"

MODES = [
    ("none", DurabilityMode.NONE, {}),
    ("log_sync", DurabilityMode.LOG, {"group_commit_size": 1}),
    ("nvm", DurabilityMode.NVM, {}),
]


def _insert_rate(mode, overrides: dict, batch: int, total: int) -> tuple[float, int]:
    """rows/s inserting ``total`` rows in batches of ``batch``, and rows lost."""
    with tempfile.TemporaryDirectory(prefix="e10-") as path:
        db = Database(path, config_for(mode, **overrides))
        db.create_table("orders", ORDERS_SCHEMA)
        rows = order_rows(total)
        start = time.perf_counter()
        if batch == 1:
            for row in rows:
                db.insert("orders", row)
        else:
            for lo in range(0, total, batch):
                db.insert_many("orders", rows[lo : lo + batch])
        elapsed = time.perf_counter() - start
        lost = total - db.query("orders").count
        db.close()
    return total / elapsed, lost


def _flush_rows() -> list[dict]:
    """E10b: flush calls of one batch into a 3×int64 NVM table."""
    rows_out = []
    with tempfile.TemporaryDirectory(prefix="e10b-") as path:
        db = Database(path, config_for(DurabilityMode.NVM))
        db.create_table(
            "n", {"a": DataType.INT64, "b": DataType.INT64, "c": DataType.INT64}
        )
        stats = db._pool.stats
        for batch in (256, 1024, 4096):
            stats.reset()
            db.insert_many("n", [{"a": i, "b": i % 9, "c": -i} for i in range(batch)])
            rows_out.append(
                {
                    "table": "E10b: NVM flushes per batch (3 int64 columns)",
                    "batch": batch,
                    "cells": batch * 3,
                    "flush_calls": stats.flush_calls,
                    "flushes_per_row": stats.flush_calls / batch,
                }
            )
        db.close()
    return rows_out


def run(quick: bool) -> list[dict]:
    batch_sizes = [1, 64, 1024] if quick else [1, 64, 1024, 4096]
    rates, lost = {}, {}
    for tag, mode, overrides in MODES:
        for batch in batch_sizes:
            # Row-at-a-time is slow by design; keep its sample smaller
            # (rates are normalised to rows/s).
            if batch == 1:
                total = 256 if quick else 512
            else:
                total = 2048 if quick else 8192
            rates[tag, batch], lost[tag, batch] = _insert_rate(
                mode, overrides, batch, total
            )
    rows_out = []
    for batch in batch_sizes:
        record = {"batch": batch}
        for tag, _, _ in MODES:
            record[f"{tag}_rows_s"] = rates[tag, batch]
            record[f"{tag}_speedup"] = rates[tag, batch] / rates[tag, 1]
        record["rows_lost"] = sum(lost[tag, batch] for tag, _, _ in MODES)
        rows_out.append(record)
    return rows_out + _flush_rows()


def check(rows: list[dict], quick: bool) -> None:
    sweep = [row for row in rows if "table" not in row]
    flushes = [row for row in rows if "table" in row]
    assert all(row["rows_lost"] == 0 for row in sweep)
    at_1024 = next(row for row in sweep if row["batch"] == 1024)
    # Headline claim: batching the NVM write path beats row-at-a-time by
    # at least 5x once batches reach 1024 rows.
    assert at_1024["nvm_speedup"] >= 5
    # The sync-log engine amortises its fsyncs the same way.
    assert at_1024["log_sync_speedup"] >= 5
    # Even without durability the single-pass encode wins clearly.
    assert at_1024["none_speedup"] >= 3
    # E10b: far below one flush per cell, the row-at-a-time floor; 16x
    # the rows cost far less than 16x the flushes, and the amortised
    # per-row flush cost collapses at large batches.
    assert all(row["flush_calls"] < row["cells"] / 8 for row in flushes)
    assert flushes[-1]["flush_calls"] < flushes[0]["flush_calls"] * 8
    assert flushes[-1]["flushes_per_row"] < 0.1
