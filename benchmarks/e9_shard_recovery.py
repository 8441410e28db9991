"""E9 — parallel recovery across hash shards (extension beyond the paper).

``open_engine(path, EngineConfig(shards=N))`` runs one engine per hash
partition and reopens all of them on a thread pool after a crash. What
that buys depends on the durability mode:

* **log_checkpoint** — recovery is O(data): each shard loads its own
  checkpoint slice, and because checkpoint load is dominated by file
  reads and numpy buffer construction (which release the GIL), the
  per-shard recovery work genuinely overlaps. The report's measured
  *parallel speedup* (sum of per-shard recovery seconds ÷ wall seconds)
  exceeds 1.5× at 4 shards even on one core; wall-clock
  ``speedup_vs_1shard`` additionally needs >1 core to drop below 1.0.
* **nvm** — recovery is O(in-flight transactions), a few milliseconds
  per shard regardless of data size. There is nothing to parallelize —
  which *is* the paper's claim — so the assertion here is flatness:
  sharding must not make the instant restart non-instant, and NVM must
  still beat LOG by a wide margin at every shard count.
"""

from __future__ import annotations

import tempfile

from repro.core import DurabilityMode

from benchmarks.harness import build_wide, timed_open

TITLE = "E9: restart vs shard count (crashed engines)"


def run(quick: bool) -> list[dict]:
    rows = 16_000 if quick else 48_000
    rows_out = []
    for tag, mode, checkpoint in [
        ("log_checkpoint", DurabilityMode.LOG, True),
        ("nvm", DurabilityMode.NVM, False),
    ]:
        baseline = None
        for shards in [1, 4] if quick else [1, 2, 4, 8]:
            with tempfile.TemporaryDirectory(prefix="e9-") as path:
                cfg = build_wide(
                    path, mode, rows, checkpoint=checkpoint, crash=True, shards=shards
                )
                wall, eng = timed_open(path, cfg)
                baseline = baseline or wall
                rows_out.append(
                    {
                        "mode": tag,
                        "shards": shards,
                        "rows": rows,
                        "restart_s": wall,
                        "parallel_speedup": eng.last_recovery.parallel_speedup,
                        "speedup_vs_1shard": baseline / wall,
                        "rows_recovered": eng.query("wide").count,
                        "verify_problems": len(eng.verify()),
                    }
                )
                eng.close()
    return rows_out


def check(rows: list[dict], quick: bool) -> None:
    for row in rows:
        assert row["rows_recovered"] == row["rows"]
        assert row["verify_problems"] == 0
    wall = {(r["mode"], r["shards"]): r["restart_s"] for r in rows}
    speedup = {(r["mode"], r["shards"]): r["parallel_speedup"] for r in rows}
    # Checkpointed log recovery genuinely overlaps across shards (the
    # checkpoint loads release the GIL) ...
    assert speedup[("log_checkpoint", 4)] > 1.5
    # ... and overlaps more when more shards split the same data.
    assert quick or speedup[("log_checkpoint", 8)] > speedup[("log_checkpoint", 2)]
    # NVM restart stays instant at every shard count ...
    assert wall[("nvm", 4)] < wall[("nvm", 1)] * 10 + 0.05
    # ... and at 4 shards still beats the log-based engine by a wide
    # margin (quick's 16k rows leave the log only ~7x the NVM restart).
    assert quick or wall[("nvm", 4)] * 5 < wall[("log_checkpoint", 4)]
