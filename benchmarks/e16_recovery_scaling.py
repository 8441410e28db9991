"""E16 — the one LOG restart path: REDO-only replay + chained checkpoints.

Two claims, measured end to end:

1. **Replay cost is independent of transaction shape.** Records carry
   their position and commit id, so the replayer loads each run of
   position-adjacent insert records of one table as one vectorised
   append whatever transactions they came from: a crashed log of
   one-row autocommits replays within 1.5x *per record* of an equally
   long log of 32-row transactions. Both points run the same code; only
   the log's shape differs.
2. **Incremental checkpoints track the dirty fraction.** After a full
   chain link, dirtying one table of ten and checkpointing again writes
   under 20% of the full snapshot's bytes, because clean tables carry
   their segment references through the manifest, and a crash right
   after it replays only the post-checkpoint tail.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.core import Database, DurabilityMode
from repro.storage.types import DataType

from benchmarks.harness import config_for

TITLE = "E16a: replay cost vs log length x rows per transaction"

SCHEMA = {"id": DataType.INT64, "payload": DataType.STRING}
ROWS_PER_TXN = [1, 32]  # the one-row shape first: it is the baseline


def _config():
    return config_for(DurabilityMode.LOG, group_commit_size=256)


def _crashed_log(path: str, records: int, rows_per_txn: int) -> None:
    """A crashed LOG database whose WAL holds ~``records`` records:
    ``rows_per_txn``-row transactions round-robin over eight tables."""
    db = Database(path, _config())
    names = [f"t{i}" for i in range(8)]
    for name in names:
        db.create_table(name, SCHEMA)
    written = len(names)  # create-table records
    row_id = 0
    while written < records:
        name = names[(written // (rows_per_txn + 1)) % len(names)]
        with db.begin() as txn:
            for _ in range(rows_per_txn):
                txn.insert(name, {"id": row_id, "payload": f"payload-{row_id:08d}"})
                row_id += 1
        written += rows_per_txn + 1
    db.crash()


def _replay_rows(record_counts: list[int], base: str) -> list[dict]:
    """One row per (log length, shape); ``one_row_ratio`` is the one-row
    shape's per-record replay cost over this shape's."""
    rows_out = []
    for records in record_counts:
        baseline_us = None
        for shape in ROWS_PER_TXN:
            path = os.path.join(base, f"log-{records}-r{shape}")
            _crashed_log(path, records, shape)
            start = time.perf_counter()
            db = Database(path, _config())
            restart_s = time.perf_counter() - start
            report = db.last_recovery
            replay_s = report.phase_seconds("log_replay")
            us_per_record = 1e6 * replay_s / report.log_records_replayed
            baseline_us = baseline_us or us_per_record
            rows_out.append(
                {
                    "log_records": report.log_records_replayed,
                    "rows_per_txn": shape,
                    "rows": sum(db.table(name).row_count for name in db.table_names),
                    "restart_s": restart_s,
                    "replay_s": replay_s,
                    "us_per_record": us_per_record,
                    "one_row_ratio": baseline_us / us_per_record,
                }
            )
            db.close()
    return rows_out


def _checkpoint_row(n_tables: int, rows_per_table: int, base: str) -> dict:
    """A full chain link vs a one-dirty-table link, and the restart both buy."""
    path = os.path.join(base, "ckpt")
    db = Database(path, _config())
    for i in range(n_tables):
        db.create_table(f"t{i}", SCHEMA)
        db.bulk_insert(
            f"t{i}",
            [{"id": j, "payload": f"payload-{j:08d}"} for j in range(rows_per_table)],
        )
    start = time.perf_counter()
    full_bytes = db.checkpoint()
    full_s = time.perf_counter() - start
    db.bulk_insert("t0", [{"id": 10_000_000, "payload": "dirty"}])
    start = time.perf_counter()
    incr_bytes = db.checkpoint()
    incr_s = time.perf_counter() - start
    db.crash()
    start = time.perf_counter()
    db = Database(path, _config())
    restart_s = time.perf_counter() - start
    replayed = db.last_recovery.log_records_replayed
    db.close()
    return {
        "table": "E16b: full vs incremental checkpoint cost",
        "tables": n_tables,
        "rows_per_table": rows_per_table,
        "full_bytes": full_bytes,
        "incr_bytes": incr_bytes,
        "bytes_ratio": incr_bytes / full_bytes,
        "full_ckpt_s": full_s,
        "incr_ckpt_s": incr_s,
        "restart_s": restart_s,
        "restart_replayed": replayed,
    }


def run(quick: bool) -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="e16-") as base:
        rows_out = _replay_rows([20_000] if quick else [20_000, 40_000], base)
        rows_out.append(_checkpoint_row(10, 1_000 if quick else 2_000, base))
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    *replay, ckpt = rows
    # The incremental chain still bounds replay: a crash right after the
    # incremental checkpoint replays at most the post-checkpoint tail.
    assert ckpt["restart_replayed"] <= 3
    longest = max(
        (row for row in replay if row["rows_per_txn"] == 32),
        key=lambda row: row["log_records"],
    )
    assert longest["one_row_ratio"] <= 1.5
    # One dirty table of ten: the incremental link writes < 20% of the
    # full snapshot's bytes.
    assert ckpt["incr_bytes"] < 0.2 * ckpt["full_bytes"]
