"""E5 — scan performance: main vs delta, and the effect of merging.

Reconstructed figure: latency of a range scan as the delta fills up,
then after a merge folds the delta into the read-optimised main.

Expected shape: scan latency grows as the (unsorted-dictionary) delta
fills, because a delta range compares the whole value vector and gathers
a per-code truth over uncompressed codes while a main range is two
binary searches plus a vectorised range test over bit-packed codes; the
merge restores near-empty-delta latency. Index probes beat full scans
for selective predicates in every state. A side table (E5b) reports the
main partition's dictionary compression.

Every state is its own table of one engine, loaded from the same rows
(main rows merged, then the delta rows), so that the states can be
measured in interleaved rounds: the host's speed drifts over seconds,
and a slow spell then lands on different states in different rounds.
Each state keeps its best round of five, each round a median of five
scans.
"""

from __future__ import annotations

import tempfile
import time

from repro.core import Database, DurabilityMode
from repro.query.predicate import Between, Eq
from repro.workloads.generator import RowGenerator

from benchmarks.harness import config_for, median_of

TITLE = "E5: scan latency vs delta fill"

ROUNDS = 5


def _scan_ms(db, table: str, predicate) -> float:
    def once() -> float:
        start = time.perf_counter()
        db.query(table, predicate).count
        return time.perf_counter() - start

    return median_of(once, trials=5) * 1e3


def _load(db, table: str, main_rows: int, delta_rows: int, merge: bool) -> None:
    gen = RowGenerator(seed=21)
    db.create_table(table, RowGenerator.SCHEMA)
    db.create_index(table, "id")
    db.bulk_insert(table, gen.rows(main_rows))
    db.merge(table)
    if delta_rows:
        db.bulk_insert(table, gen.rows(delta_rows))
    if merge:
        db.merge(table)


def run(quick: bool) -> list[dict]:
    main_rows = 10_000 if quick else 40_000
    full = main_rows * 3 // 4
    states = [(f"delta={n}", n, False) for n in (0, main_rows // 4, full)]
    states.append(("after merge", full, True))
    with tempfile.TemporaryDirectory(prefix="e5-") as path:
        db = Database(path, config_for(DurabilityMode.NVM))
        for i, (_, delta_rows, merge) in enumerate(states):
            _load(db, f"t{i}", main_rows, delta_rows, merge)
        scans = {i: [] for i in range(len(states))}
        probes = {i: [] for i in range(len(states))}
        for _ in range(ROUNDS):
            for i in scans:
                scans[i].append(_scan_ms(db, f"t{i}", Between("quantity", 10, 40)))
                probes[i].append(_scan_ms(db, f"t{i}", Eq("id", 17)))
        rows_out = [
            {
                "state": state,
                "range_scan_ms": min(scans[i]),
                "point_index_ms": min(probes[i]),
                "visible_rows": db.query(f"t{i}").count,
                "expected_rows": main_rows + delta_rows,
            }
            for i, (state, delta_rows, _) in enumerate(states)
        ]
        merged = db.table(f"t{len(states) - 1}")
        packed = merged.main.compressed_bytes()
        plain = merged.main.row_count * len(merged.schema) * 8
        rows_out.append(
            {
                "table": "E5b: attribute-vector compression (main)",
                "main_rows": merged.main.row_count,
                "packed_bytes": packed,
                "plain8B_bytes": plain,
                "compression_x": plain / max(packed, 1),
            }
        )
        db.close()
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    *scans, compression = rows
    for row in scans:
        assert row["visible_rows"] == row["expected_rows"]
    # Index probes stay far below range scans throughout.
    assert all(row["point_index_ms"] < row["range_scan_ms"] for row in scans)
    assert compression["packed_bytes"] < compression["plain8B_bytes"]
    if not quick:  # a 10k-row main scans in ~0.06 ms: noise decides
        empty_delta = scans[0]["range_scan_ms"]
        full_delta, after_merge = (row["range_scan_ms"] for row in scans[-2:])
        assert full_delta > empty_delta  # the delta slows scans down
        assert after_merge < full_delta  # the merge restores speed
