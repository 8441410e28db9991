"""Standalone experiment runner: regenerate every table/figure without pytest.

Usage::

    python -m repro.bench.run_all [--quick] [--only E1,E3] [--out report.md]

Runs the same experiments as ``pytest benchmarks/ --benchmark-only``
(E1–E12) in-process and prints/saves the result tables. Every runner
exports its raw table rows: ``--json PATH`` dumps them all into one
JSON document keyed by experiment id, and ``--json-dir DIR`` writes one
``BENCH_<id>.json`` per executed experiment — the CI smoke step
archives these as benchmark artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time

from repro.bench.reporting import format_table
from repro.core import Database, DurabilityMode, EngineConfig, open_engine
from repro.nvm.latency import LatencyModel
from repro.obs import get_registry
from repro.query.predicate import Between, Eq
from repro.workloads.generator import RowGenerator, WideRowGenerator
from repro.workloads.ycsb import YcsbConfig, YcsbDriver


def _finish(name: str, rows_out: list, title: str) -> str:
    """Register an experiment's raw rows for JSON export; format them."""
    _JSON_ROWS[name] = rows_out
    return format_table(rows_out, title=title)


def _config(mode: DurabilityMode, **overrides) -> EngineConfig:
    defaults = dict(mode=mode, extent_size=8 * 1024 * 1024)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def _build_wide(
    path: str,
    mode: DurabilityMode,
    rows: int,
    checkpoint: bool,
    shards: int = 1,
    crash: bool = False,
    index: bool = False,
):
    cfg = _config(mode, shards=shards)
    db = open_engine(path, cfg)
    gen = WideRowGenerator(seed=11)
    db.create_table("wide", {c.name: c.dtype for c in gen.schema})
    remaining = rows
    while remaining > 0:
        db.bulk_insert("wide", gen.rows(min(5000, remaining)))
        remaining -= 5000
    if index:  # what a first point read after a restart hits
        db.create_index("wide", "id")
        db.merge("wide")
    if checkpoint and mode is DurabilityMode.LOG:
        db.checkpoint()
    if crash:
        db.crash(seed=3)
    else:
        db.close()
    return cfg


def _timed_open(path: str, cfg: EngineConfig):
    start = time.perf_counter()
    db = open_engine(path, cfg)
    return time.perf_counter() - start, db


def run_e1(quick: bool) -> str:
    """Restart time per size; for NVM also when it is usable again."""
    sizes = [4_000, 16_000] if quick else [4_000, 8_000, 16_000, 32_000, 64_000]
    rows_out = []
    base = tempfile.mkdtemp(prefix="e1-")
    try:
        for rows in sizes:
            record = {"rows": rows}
            for tag, mode, ckpt in [
                ("log_replay", DurabilityMode.LOG, False),
                ("log_checkpoint", DurabilityMode.LOG, True),
                ("nvm", DurabilityMode.NVM, False),
            ]:
                path = f"{base}/{tag}-{rows}"
                cfg = _build_wide(path, mode, rows, ckpt, index=tag == "nvm")
                seconds, db = _timed_open(path, cfg)
                record[f"{tag}_s"] = seconds
                if tag == "nvm":
                    start = time.perf_counter()
                    assert len(db.query("wide", Eq("id", rows // 2)).rows()) == 1
                    record["nvm_first_read_s"] = time.perf_counter() - start
                db.close()
            record["speedup"] = record["log_replay_s"] / record["nvm_s"]
            rows_out.append(record)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return _finish("E1", rows_out, "E1: restart time vs dataset size")


def run_e2(quick: bool) -> str:
    rows = 8_000 if quick else 30_000
    base = tempfile.mkdtemp(prefix="e2-")
    rows_out = []
    try:
        for tag, mode, ckpt in [
            ("log_replay", DurabilityMode.LOG, False),
            ("log_checkpoint", DurabilityMode.LOG, True),
            ("nvm", DurabilityMode.NVM, False),
        ]:
            path = f"{base}/{tag}"
            cfg = _build_wide(path, mode, rows, ckpt)
            total, db = _timed_open(path, cfg)
            record = {"mode": tag, "total_s": total}
            for phase, seconds in db.last_recovery.phases:
                record[phase + "_s"] = seconds
            rows_out.append(record)
            db.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return _finish("E2", rows_out, f"E2: recovery breakdown ({rows} rows)")


def run_e3(quick: bool) -> str:
    operations = 400 if quick else 1200
    mixes = {
        "write_heavy": dict(read_ratio=0.2, update_ratio=0.6, insert_ratio=0.2),
        "read_heavy": dict(read_ratio=0.9, update_ratio=0.05, insert_ratio=0.05),
    }
    rows_out = []
    for mix_name, mix in mixes.items():
        record = {"workload": mix_name}
        for tag, mode, overrides in [
            ("none", DurabilityMode.NONE, {}),
            ("nvm", DurabilityMode.NVM, {}),
            ("log_sync", DurabilityMode.LOG, {"group_commit_size": 1}),
            ("log_group32", DurabilityMode.LOG, {"group_commit_size": 32}),
        ]:
            path = tempfile.mkdtemp(prefix="e3-")
            db = Database(path, _config(mode, **overrides))
            driver = YcsbDriver(db, YcsbConfig(records=400, seed=7, **mix))
            driver.load()
            record[f"{tag}_ops_s"] = driver.run(operations).ops_per_second
            db.close()
            shutil.rmtree(path, ignore_errors=True)
        rows_out.append(record)
    return _finish("E3", rows_out, "E3: throughput by durability mode")


def run_e4(quick: bool) -> str:
    multipliers = [1, 4] if quick else [1, 2, 4, 8]
    operations = 300 if quick else 900
    rows_out = []
    for multiplier in multipliers:
        record = {"latency_multiplier": multiplier}
        for mix_name, mix in [
            ("write_heavy", dict(read_ratio=0.2, update_ratio=0.6, insert_ratio=0.2)),
            ("read_heavy", dict(read_ratio=0.95, update_ratio=0.05, insert_ratio=0.0)),
        ]:
            path = tempfile.mkdtemp(prefix="e4-")
            latency = LatencyModel(injected_flush_ns=3000, write_multiplier=multiplier)
            db = Database(path, _config(DurabilityMode.NVM, latency=latency))
            driver = YcsbDriver(db, YcsbConfig(records=300, seed=5, **mix))
            driver.load()
            record[f"{mix_name}_ops_s"] = driver.run(operations).ops_per_second
            db.close()
            shutil.rmtree(path, ignore_errors=True)
        rows_out.append(record)
    return _finish("E4", rows_out, "E4: throughput vs NVM write latency")


def run_e5(quick: bool) -> str:
    main_rows = 10_000 if quick else 40_000
    steps = [0, main_rows // 4, main_rows // 2]
    path = tempfile.mkdtemp(prefix="e5-")
    rows_out = []
    try:
        db = Database(path, _config(DurabilityMode.NVM))
        gen = RowGenerator(seed=21)
        db.create_table("events", RowGenerator.SCHEMA)
        db.create_index("events", "id")
        db.bulk_insert("events", gen.rows(main_rows))
        db.merge("events")
        predicate = Between("quantity", 10, 40)
        filled = 0

        def scan_ms() -> float:
            start = time.perf_counter()
            db.query("events", predicate).count
            return (time.perf_counter() - start) * 1e3

        for target in steps:
            if target > filled:
                db.bulk_insert("events", gen.rows(target - filled))
                filled = target
            rows_out.append({"state": f"delta={target}", "range_scan_ms": scan_ms()})
        db.merge("events")
        rows_out.append({"state": "after merge", "range_scan_ms": scan_ms()})
        db.close()
    finally:
        shutil.rmtree(path, ignore_errors=True)
    return _finish("E5", rows_out, f"E5: scan latency vs delta fill (main={main_rows})")


def run_e6(quick: bool) -> str:
    history = [250, 1000] if quick else [500, 1000, 2000, 4000]
    base = tempfile.mkdtemp(prefix="e6-")
    rows_out = []
    try:
        for txns in history:
            record = {"committed_txns": txns}
            for tag, mode, ckpt, overrides in [
                ("log_only", DurabilityMode.LOG, False, {"group_commit_size": 0}),
                ("log_ckpt", DurabilityMode.LOG, True, {"group_commit_size": 0}),
                ("nvm", DurabilityMode.NVM, False, {}),
            ]:
                path = f"{base}/{tag}-{txns}"
                cfg = _config(mode, **overrides)
                db = Database(path, cfg)
                gen = RowGenerator(seed=13)
                db.create_table("events", RowGenerator.SCHEMA)
                for _ in range(txns):
                    db.insert("events", gen.row())
                if ckpt:
                    db.checkpoint()
                db.close()
                seconds, db = _timed_open(path, cfg)
                db.close()
                record[f"{tag}_s"] = seconds
            rows_out.append(record)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return _finish("E6", rows_out, "E6: restart time vs transaction history")


def run_e7(quick: bool) -> str:
    """Cost of the volatile delta-index catch-up: the first indexed
    query after a reopen indexes the whole delta, the second nothing."""
    sizes = [2_000] if quick else [5_000, 20_000]
    caught_up = get_registry().counter("index_catchup_rows_total")
    rows_out = []
    for rows in sizes:
        path = tempfile.mkdtemp(prefix="e7-")
        cfg = _config(DurabilityMode.NVM)
        db = Database(path, cfg)
        gen = RowGenerator(seed=31)
        db.create_table("events", RowGenerator.SCHEMA)
        db.create_index("events", "id")
        db.bulk_insert("events", gen.rows(rows))
        db.close()
        restart_s, db = _timed_open(path, cfg)
        before = caught_up.value
        start = time.perf_counter()
        assert db.query("events", Eq("id", rows // 2)).count == 1
        first_query_ms = (time.perf_counter() - start) * 1e3
        first_caught_up = caught_up.value - before
        start = time.perf_counter()
        db.query("events", Eq("id", rows // 3)).count
        second_query_ms = (time.perf_counter() - start) * 1e3
        db.close()
        shutil.rmtree(path, ignore_errors=True)
        assert first_caught_up == rows
        assert second_query_ms < first_query_ms + 5.0
        rows_out.append(
            {
                "delta_rows": rows,
                "restart_s": restart_s,
                "first_query_ms": first_query_ms,
                "caught_up_rows": first_caught_up,
                "second_query_ms": second_query_ms,
            }
        )
    first = [row["first_query_ms"] for row in rows_out]
    assert first == sorted(first), "the catch-up grows with the delta"
    return _finish("E7", rows_out, "E7: cost of the volatile delta-index catch-up")


def run_e9(quick: bool) -> str:
    rows = 16_000 if quick else 48_000
    shard_counts = [1, 4] if quick else [1, 2, 4, 8]
    rows_out = []
    for tag, mode, ckpt in [
        ("log_checkpoint", DurabilityMode.LOG, True),
        ("nvm", DurabilityMode.NVM, False),
    ]:
        baseline = None
        for shards in shard_counts:
            base = tempfile.mkdtemp(prefix="e9-")
            try:
                cfg = _build_wide(
                    base, mode, rows, ckpt, shards=shards, crash=True
                )
                wall, eng = _timed_open(base, cfg)
                report = eng.last_recovery
                if baseline is None:
                    baseline = wall
                rows_out.append(
                    {
                        "mode": tag,
                        "shards": shards,
                        "restart_s": wall,
                        "parallel_speedup": report.parallel_speedup,
                        "speedup_vs_1shard": baseline / wall,
                    }
                )
                eng.close()
            finally:
                shutil.rmtree(base, ignore_errors=True)
    return _finish("E9", rows_out, f"E9: restart time vs shard count ({rows} rows)")


def run_e10(quick: bool) -> str:
    from repro.storage.types import DataType

    batch_sizes = [1, 64, 1024] if quick else [1, 64, 1024, 4096]
    scalar_total = 256 if quick else 512
    bulk_total = 2048 if quick else 8192
    schema = {
        "id": DataType.INT64,
        "name": DataType.STRING,
        "qty": DataType.INT64,
        "score": DataType.FLOAT64,
    }

    def make_rows(n: int) -> list[dict]:
        return [
            {
                "id": i,
                "name": f"sku-{i % 64}",
                "qty": i % 1000,
                "score": i * 0.25,
            }
            for i in range(n)
        ]

    rates: dict[tuple[str, int], float] = {}
    for tag, mode, overrides in [
        ("none", DurabilityMode.NONE, {}),
        ("log_sync", DurabilityMode.LOG, {"group_commit_size": 1}),
        ("nvm", DurabilityMode.NVM, {}),
    ]:
        for batch in batch_sizes:
            total = scalar_total if batch == 1 else bulk_total
            path = tempfile.mkdtemp(prefix="e10-")
            try:
                db = Database(path, _config(mode, **overrides))
                db.create_table("orders", schema)
                rows = make_rows(total)
                start = time.perf_counter()
                if batch == 1:
                    for row in rows:
                        db.insert("orders", row)
                else:
                    for lo in range(0, total, batch):
                        db.insert_many("orders", rows[lo : lo + batch])
                rates[(tag, batch)] = total / (time.perf_counter() - start)
                db.close()
            finally:
                shutil.rmtree(path, ignore_errors=True)

    rows_out = []
    for batch in batch_sizes:
        record = {"batch": batch}
        for tag in ("none", "log_sync", "nvm"):
            record[f"{tag}_rows_s"] = rates[(tag, batch)]
            record[f"{tag}_speedup"] = rates[(tag, batch)] / rates[(tag, 1)]
        rows_out.append(record)
    return _finish("E10", rows_out, "E10: bulk insert throughput vs batch size")


def run_e11(quick: bool) -> str:
    from repro.query.aggregate import aggregate, aggregate_scalar
    from repro.query.join import hash_join, hash_join_scalar
    from repro.storage.types import DataType

    sizes = [100_000] if quick else [100_000, 1_000_000]
    fact_schema = {
        "id": DataType.INT64,
        "grade": DataType.STRING,
        "qty": DataType.INT64,
        "score": DataType.FLOAT64,
    }

    def fact_rows(n: int, offset: int = 0) -> list[dict]:
        return [
            {
                "id": offset + i,
                "grade": f"g{(offset + i) % 16}",
                "qty": (offset + i) % 1000,
                "score": float((offset + i) % 997) * 0.5,
            }
            for i in range(n)
        ]

    rows_out = []
    for n in sizes:
        path = tempfile.mkdtemp(prefix="e11-")
        try:
            db = Database(path, _config(DurabilityMode.NONE))
            db.create_table("fact", fact_schema)
            merged = (n * 9 // 10 // 10_000) * 10_000
            for lo in range(0, merged, 100_000):
                db.bulk_insert("fact", fact_rows(min(100_000, merged - lo), lo))
            db.merge("fact")
            for lo in range(merged, n, 100_000):
                db.bulk_insert("fact", fact_rows(min(100_000, n - lo), lo))
            db.create_table(
                "dim", {"id": DataType.INT64, "label": DataType.STRING}
            )
            db.bulk_insert(
                "dim",
                [{"id": i, "label": f"d{i % 7}"} for i in range(0, n // 10, 10)],
            )

            result = db.query("fact")
            start = time.perf_counter()
            aggregate_scalar(result, "sum", "score", group_by="grade")
            agg_scalar = time.perf_counter() - start
            start = time.perf_counter()
            aggregate(result, "sum", "score", group_by="grade")
            agg_vec = time.perf_counter() - start

            left, right = db.query("fact"), db.query("dim")
            start = time.perf_counter()
            hash_join_scalar(left, right, "id")
            join_scalar = time.perf_counter() - start
            start = time.perf_counter()
            hash_join(left, right, "id")
            join_vec = time.perf_counter() - start

            predicate = Between("qty", 100, 599)
            start = time.perf_counter()
            db.query("fact", predicate)
            scan_cold = time.perf_counter() - start
            scan_warm = scan_cold
            for _ in range(3):
                start = time.perf_counter()
                db.query("fact", predicate)
                scan_warm = min(scan_warm, time.perf_counter() - start)

            rows_out.append(
                {
                    "rows": n,
                    "agg_scalar_rows_s": n / agg_scalar,
                    "agg_vec_rows_s": n / agg_vec,
                    "agg_speedup": agg_scalar / agg_vec,
                    "join_scalar_rows_s": n / join_scalar,
                    "join_vec_rows_s": n / join_vec,
                    "join_speedup": join_scalar / join_vec,
                    "scan_warm_speedup": scan_cold / scan_warm,
                }
            )
            db.close()
        finally:
            shutil.rmtree(path, ignore_errors=True)
    return _finish(
        "E11", rows_out, "E11: read throughput, scalar vs vectorized (rows/s)"
    )


def run_e12(quick: bool) -> str:
    import threading

    from repro.storage.types import DataType

    writer_counts = [1, 8] if quick else [1, 2, 4, 8]
    txns = 16 if quick else 24
    delay = 0.003  # modelled WAL device latency

    def run_writers(group_size: int, writers: int) -> dict:
        path = tempfile.mkdtemp(prefix="e12-")
        try:
            db = Database(
                path,
                _config(
                    DurabilityMode.LOG,
                    group_commit_size=group_size,
                    wal_fsync_delay_s=delay,
                ),
            )
            db.create_table("t", {"k": DataType.INT64, "v": DataType.INT64})
            base_syncs = db.stats()["wal"]["syncs"]
            barrier = threading.Barrier(writers)

            def writer(i: int) -> None:
                barrier.wait()
                for j in range(txns):
                    db.insert("t", {"k": i * txns + j, "v": j})

            threads = [
                threading.Thread(target=writer, args=(i,))
                for i in range(writers)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            commits = writers * txns
            wal = db.stats()["wal"]
            result = {
                "txn_s": commits / elapsed,
                "fsyncs_per_commit": (wal["syncs"] - base_syncs) / commits,
            }
            db.close()
            return result
        finally:
            shutil.rmtree(path, ignore_errors=True)

    runs = {
        (tag, writers): run_writers(group_size, writers)
        for tag, group_size in [("sync", 1), ("async", 0)]
        for writers in writer_counts
    }
    rows_out = []
    for writers in writer_counts:
        record = {"writers": writers}
        for tag in ("sync", "async"):
            run = runs[(tag, writers)]
            record[f"{tag}_txn_s"] = run["txn_s"]
            record[f"{tag}_speedup"] = run["txn_s"] / runs[(tag, 1)]["txn_s"]
            record[f"{tag}_fsyncs_per_commit"] = run["fsyncs_per_commit"]
        rows_out.append(record)
    return _finish(
        "E12",
        rows_out,
        "E12: committed txn/s vs concurrent writers (single shard, 3ms fsync)",
    )


def run_e13(quick: bool) -> str:
    from repro.bench.online_merge import compare_merge_stall

    sizes = [100_000] if quick else [200_000, 1_000_000]
    rows_out = [compare_merge_stall(rows) for rows in sizes]
    return _finish(
        "E13",
        rows_out,
        "E13: foreground insert p99 during merge, blocking vs online",
    )


def run_e14(quick: bool) -> str:
    from repro.bench.replication import replication_rows

    ops = 150 if quick else 400
    return _finish(
        "E14",
        replication_rows(ops),
        "E14: replication lag vs write throughput vs failover time",
    )


def run_e15(quick: bool) -> str:
    from repro.bench.server_bench import restart_rows, throughput_rows

    connection_counts = [2, 8] if quick else [1, 2, 4, 8, 16]
    requests_per_conn = 400 if quick else 1500
    restart_size = 20_000 if quick else 100_000
    rows_out = throughput_rows(connection_counts, requests_per_conn)
    rows_out += throughput_rows([2], requests_per_conn, mode="log")
    rows_out += restart_rows(restart_size)
    return _finish(
        "E15",
        rows_out,
        "E15: served req/s vs connections; SIGKILL restart downtime at the socket",
    )


def run_e16(quick: bool) -> str:
    from repro.bench.recovery_scaling import (
        incremental_checkpoint_rows,
        replay_scaling_rows,
    )

    record_counts = [20_000] if quick else [100_000, 500_000]
    base = tempfile.mkdtemp(prefix="e16-")
    try:
        rows_out = replay_scaling_rows(record_counts, [1, 32], base)
        rows_out += incremental_checkpoint_rows(
            10, 1_000 if quick else 5_000, base
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return _finish(
        "E16",
        rows_out,
        "E16: replay cost vs log length x rows per txn; incremental checkpoint cost",
    )


EXPERIMENTS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E9": run_e9,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "E14": run_e14,
    "E15": run_e15,
    "E16": run_e16,
}

# Raw rows exported by runners that support --json (keyed by experiment).
_JSON_ROWS: dict[str, list[dict]] = {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="shrink sweeps ~4x")
    parser.add_argument(
        "--only", default="", help="comma-separated experiment ids (e.g. E1,E3)"
    )
    parser.add_argument("--out", default="", help="also write the report here")
    parser.add_argument(
        "--json", default="", help="dump raw table rows as JSON here"
    )
    parser.add_argument(
        "--json-dir",
        default="",
        help="write one BENCH_<id>.json per executed experiment into DIR",
    )
    args = parser.parse_args(argv)
    _JSON_ROWS.clear()

    wanted = [e.strip().upper() for e in args.only.split(",") if e.strip()]
    sections = []
    for name, runner in EXPERIMENTS.items():
        if wanted and name not in wanted:
            continue
        start = time.perf_counter()
        table = runner(args.quick)
        elapsed = time.perf_counter() - start
        sections.append(table + f"\n({name} ran in {elapsed:.1f}s)")
        print()
        print(sections[-1])
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n\n".join(sections) + "\n")
        print(f"\nreport written to {args.out}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(_JSON_ROWS, f, indent=2)
        print(f"raw rows written to {args.json}")
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
        for name, rows in _JSON_ROWS.items():
            target = os.path.join(args.json_dir, f"BENCH_{name.lower()}.json")
            with open(target, "w") as f:
                json.dump({name: rows}, f, indent=2)
            print(f"raw rows written to {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
