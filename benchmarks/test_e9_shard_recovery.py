"""E9 — parallel recovery across hash shards (extension beyond the paper).

`ShardedEngine` runs one engine per hash partition and reopens all of
them on a thread pool after a crash. What that buys depends on the
durability mode:

* **log_checkpoint** — recovery is O(data): each shard loads its own
  checkpoint slice, and because checkpoint load is dominated by file
  reads and numpy buffer construction (which release the GIL), the
  per-shard recovery work genuinely overlaps. The report's measured
  *parallel speedup* (sum of per-shard recovery seconds ÷ wall seconds)
  exceeds 1.5× at 4 shards even on one core; wall-clock `speedup_vs_1shard`
  additionally needs >1 core to drop below 1.0.
* **nvm** — recovery is O(in-flight transactions), a few milliseconds
  per shard regardless of data size. There is nothing to parallelize —
  which *is* the paper's claim — so the assertion here is flatness:
  sharding must not make the instant restart non-instant, and NVM must
  still beat LOG by a wide margin at every shard count.

The sweep table reports wall seconds, the measured parallel speedup,
and wall-clock speedup vs the 1-shard engine for both modes.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_table
from repro.core import DurabilityMode, open_engine

from benchmarks.conftest import build_wide_db, time_restart

ROWS = 48_000
SHARD_COUNTS = [1, 2, 4, 8]


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Populated, crashed sharded engines for every (mode, count) point."""
    base = tmp_path_factory.mktemp("e9")
    points = {}
    for shards in SHARD_COUNTS:
        for tag, mode, checkpoint in [
            ("log_checkpoint", DurabilityMode.LOG, True),
            ("nvm", DurabilityMode.NVM, False),
        ]:
            path = str(base / f"{tag}-{shards}")
            cfg = build_wide_db(
                path, mode, ROWS, shards=shards, checkpoint=checkpoint, crash=True
            )
            points[(tag, shards)] = (path, cfg)
    return points


def test_e9_shard_recovery_sweep(prepared, experiment_report, benchmark):
    rows_out = []
    walls: dict[tuple[str, int], float] = {}
    speedups: dict[tuple[str, int], float] = {}
    for tag in ("log_checkpoint", "nvm"):
        baseline = None
        for shards in SHARD_COUNTS:
            path, cfg = prepared[(tag, shards)]
            wall, eng = time_restart(path, cfg)
            assert eng.query("wide").count == ROWS
            assert eng.verify() == []
            report = eng.last_recovery
            eng.close()
            if baseline is None:
                baseline = wall
            walls[(tag, shards)] = wall
            speedups[(tag, shards)] = report.parallel_speedup
            rows_out.append(
                {
                    "mode": tag,
                    "shards": shards,
                    "restart_s": wall,
                    "parallel_speedup": report.parallel_speedup,
                    "speedup_vs_1shard": baseline / wall,
                }
            )

    experiment_report(
        format_table(
            rows_out,
            columns=[
                "mode",
                "shards",
                "restart_s",
                "parallel_speedup",
                "speedup_vs_1shard",
            ],
            title=f"E9: restart vs shard count ({ROWS} rows)",
        )
    )

    # 1. Checkpointed log recovery genuinely overlaps across shards: the
    #    measured parallel speedup (serial recovery seconds / wall) at
    #    4 shards clears 1.5x (checkpoint loads release the GIL).
    assert speedups[("log_checkpoint", 4)] > 1.5
    # ... and grows when more shards split the same data.
    assert speedups[("log_checkpoint", 8)] > speedups[("log_checkpoint", 2)]

    # 2. NVM restart stays instant at every shard count (flatness): the
    #    4-shard NVM wall must not blow up over the 1-shard wall.
    assert walls[("nvm", 4)] < walls[("nvm", 1)] * 10 + 0.05

    # 3. The E1 shape survives sharding: at 4 shards NVM still beats the
    #    log-based engine by a wide margin.
    assert walls[("nvm", 4)] * 5 < walls[("log_checkpoint", 4)]

    # The benchmarked operation: the 4-shard NVM cold open.
    path, cfg = prepared[("nvm", 4)]
    benchmark.pedantic(
        lambda: open_engine(path, cfg).close(), rounds=5, iterations=1
    )
