"""E2 — recovery time breakdown by phase.

Reconstructed table: where restart time goes in each durability mode.

Expected shape: every LOG phase (checkpoint load, log replay, index
rebuild) is O(data) and dominates; every NVM phase (pool open, catalog
attach, transaction fix-up) is O(1)-ish and the whole restart stays in
the low milliseconds. ``id`` is indexed, so the LOG index rebuild has
real work. Each mode's recovery span tree prints below the table, with
every phase's share of its parent.
"""

from __future__ import annotations

import tempfile

from repro.core import DurabilityMode
from repro.query.predicate import Eq

from benchmarks.harness import build_wide, timed_open

TITLE = "E2: recovery breakdown by phase"


def run(quick: bool) -> list[dict]:
    rows = 8_000 if quick else 30_000
    rows_out = []
    with tempfile.TemporaryDirectory(prefix="e2-") as base:
        for tag, mode, checkpoint in [
            ("log_replay", DurabilityMode.LOG, False),
            ("log_checkpoint", DurabilityMode.LOG, True),
            ("nvm", DurabilityMode.NVM, False),
        ]:
            path = f"{base}/{tag}"
            cfg = build_wide(path, mode, rows, checkpoint=checkpoint, index=True)
            total, db = timed_open(path, cfg)
            report = db.last_recovery
            record = {"mode": tag, "rows": rows, "total_s": total}
            record.update({f"{phase}_s": seconds for phase, seconds in report.phases})
            record["replayed_records"] = report.log_records_replayed
            record["txn_fixups"] = report.txns_rolled_back + report.txns_rolled_forward
            record["span_tree"] = f"{tag}:\n{report.span.render_tree()}"
            # Data must be fully usable right after recovery.
            record["rows_recovered"] = db.query("wide").count
            record["point_hits"] = db.query("wide", Eq("id", rows // 2)).count
            rows_out.append(record)
            db.close()
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    for row in rows:
        assert row["rows_recovered"] == row["rows"] and row["point_hits"] == 1
    by_mode = {row["mode"]: row for row in rows}
    # Every phase a mode reports is a node of its printed tree.
    for row in rows:
        phases = [key[:-2] for key in row if key.endswith("_s") and key != "total_s"]
        assert phases and all(f"─ {phase}: " in row["span_tree"] for phase in phases)
    nvm, replay = by_mode["nvm"], by_mode["log_replay"]
    assert nvm["total_s"] < 0.1
    assert replay["log_replay_s"] > 0.5 * replay["total_s"]
    assert by_mode["log_checkpoint"]["checkpoint_load_s"] > 0
    assert replay["total_s"] > nvm["total_s"] * 10
