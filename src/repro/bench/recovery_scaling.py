"""E16 — the one LOG restart path: REDO-only replay + chained checkpoints.

Two sweeps behind the experiment:

* **Replay cost vs transaction shape** — restart time of a crashed LOG
  engine versus log length and rows per transaction. Records carry
  their position and commit id, so the replayer loads every run of
  position-adjacent insert records of one table as one vectorized
  append whatever transactions they came from: one-row autocommits
  replay at about the per-record cost of multi-row transactions.
* **Incremental checkpoint cost** — bytes and seconds for a full chain
  link (every table dirty) versus the next link after touching a single
  table, on a multi-table database. Clean tables carry their segment
  references forward, so the incremental link's cost tracks the dirty
  fraction, not the database size.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database
from repro.storage.types import DataType

SCHEMA = {"id": DataType.INT64, "payload": DataType.STRING}


def _config(**overrides) -> EngineConfig:
    defaults = dict(
        mode=DurabilityMode.LOG,
        extent_size=8 * 1024 * 1024,
        group_commit_size=256,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def build_replay_log(
    path: str, records: int, n_tables: int = 8, rows_per_txn: int = 32
) -> None:
    """Populate a LOG database whose WAL holds ~``records`` records.

    Multi-row transactions land round-robin on ``n_tables`` tables;
    each contributes ``rows_per_txn`` insert records plus one commit.
    The database is crashed, leaving the whole log as replay work.
    """
    db = Database(path, _config())
    names = [f"t{i}" for i in range(n_tables)]
    for name in names:
        db.create_table(name, SCHEMA)
    written = n_tables  # create-table records
    row_id = 0
    while written < records:
        name = names[(written // (rows_per_txn + 1)) % n_tables]
        with db.begin() as txn:
            for _ in range(rows_per_txn):
                txn.insert(
                    name, {"id": row_id, "payload": f"payload-{row_id:08d}"}
                )
                row_id += 1
        written += rows_per_txn + 1
    db.crash()


def timed_restart(path: str) -> dict:
    """Cold-open a crashed copy; report wall and replay-phase seconds."""
    start = time.perf_counter()
    db = Database(path, _config())
    wall = time.perf_counter() - start
    out = {
        "restart_s": wall,
        "replay_s": db.last_recovery.phase_seconds("log_replay"),
        "records": db.last_recovery.log_records_replayed,
        "rows": sum(db.table(name).row_count for name in db.table_names),
    }
    db.close()
    return out


def replay_scaling_rows(
    record_counts: list[int], rows_per_txn: list[int], base_dir: str
) -> list[dict]:
    """One row per (log length, rows per transaction) point.

    ``one_row_ratio`` is the per-record replay cost of the first
    listed shape (list the one-row shape first) over this point's.
    """
    rows_out = []
    for records in record_counts:
        baseline_us = None
        for shape in rows_per_txn:
            path = os.path.join(base_dir, f"log-{records}-r{shape}")
            build_replay_log(path, records, rows_per_txn=shape)
            point = timed_restart(path)
            shutil.rmtree(path, ignore_errors=True)
            us_per_record = 1e6 * point["replay_s"] / point["records"]
            if baseline_us is None:
                baseline_us = us_per_record
            rows_out.append(
                {
                    "log_records": point["records"],
                    "rows_per_txn": shape,
                    "rows": point["rows"],
                    "restart_s": point["restart_s"],
                    "replay_s": point["replay_s"],
                    "us_per_record": us_per_record,
                    "one_row_ratio": baseline_us / us_per_record,
                }
            )
    return rows_out


def incremental_checkpoint_rows(
    n_tables: int, rows_per_table: int, base_dir: str
) -> list[dict]:
    """Full-chain link vs one-dirty-table link, plus the restart both buy."""
    path = os.path.join(base_dir, "ckpt")
    db = Database(path, _config())
    for i in range(n_tables):
        db.create_table(f"t{i}", SCHEMA)
        db.bulk_insert(
            f"t{i}",
            [
                {"id": j, "payload": f"payload-{j:08d}"}
                for j in range(rows_per_table)
            ],
        )
    t0 = time.perf_counter()
    full_bytes = db.checkpoint()
    full_s = time.perf_counter() - t0
    db.bulk_insert("t0", [{"id": 10_000_000, "payload": "dirty"}])
    t0 = time.perf_counter()
    incr_bytes = db.checkpoint()
    incr_s = time.perf_counter() - t0
    db.crash()
    t0 = time.perf_counter()
    db = Database(path, _config())
    restart_s = time.perf_counter() - t0
    replayed = db.last_recovery.log_records_replayed
    db.close()
    shutil.rmtree(path, ignore_errors=True)
    return [
        {
            "tables": n_tables,
            "rows_per_table": rows_per_table,
            "full_ckpt_s": full_s,
            "full_bytes": full_bytes,
            "incr_ckpt_s": incr_s,
            "incr_bytes": incr_bytes,
            "bytes_ratio": incr_bytes / full_bytes if full_bytes else 0.0,
            "restart_replayed": replayed,
            "restart_s": restart_s,
        }
    ]
