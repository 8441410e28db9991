"""Observability report CLI: ``python -m repro.obs.report``.

Two modes:

* **workload** (default) — build a small database per durability mode,
  restart it, and print the recovery span tree alongside the top
  process counters, i.e. a self-contained demonstration of where an
  NVM restart spends its time versus a log replay;
* **replay** (``--replay sweep.json``) — render the recovery-phase
  aggregates recorded by a crash-point sweep
  (``python -m repro.fault.sweep --json ...``) without re-running it.

``--format json`` emits the same data machine-readably;
``--format prometheus`` dumps the registry in the text exposition
format (workload mode only).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Optional

from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry


def _run_workload(mode: str, rows: int, path: str) -> dict:
    """Load → merge → restart one engine; returns report + span tree."""
    from repro.core import Database, DurabilityMode, EngineConfig
    from repro.storage.types import DataType

    config = EngineConfig(mode=DurabilityMode(mode))
    engine = Database(path, config)
    engine.create_table("items", {"id": DataType.INT64, "name": DataType.STRING})
    engine.bulk_insert(
        "items",
        [{"id": i, "name": f"item-{i % 97}"} for i in range(rows)],
    )
    engine.merge("items")
    # A handful of single-row commits so the LOG tail has something to
    # replay and NVM has in-flight-free txn slots to scan.
    for i in range(8):
        engine.insert("items", {"id": rows + i, "name": "late"})
    if mode == "log":
        engine.checkpoint()
        engine.insert("items", {"id": rows + 100, "name": "after-ckpt"})
    engine.close()

    engine = Database(path, config)
    report = engine.last_recovery
    out = {
        "mode": mode,
        "rows": rows,
        "recovery": report.as_dict(),
        "tree": report.span.render_tree(),
    }
    engine.close()
    return out


def _top_counters(registry: MetricsRegistry, top: int) -> list[tuple[str, object]]:
    counters = registry.counters_snapshot()
    ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


def _print_workload_text(results: list[dict], registry, top: int) -> None:
    for result in results:
        recovery = result["recovery"]
        print(f"== {result['mode']} restart: {result['rows']} rows ==")
        print(result["tree"])
        summary = {
            key: recovery[key]
            for key in (
                "tables",
                "rows_recovered",
                "txns_rolled_back",
                "txns_rolled_forward",
                "log_records_replayed",
            )
            if recovery.get(key)
        }
        if summary:
            print("   " + ", ".join(f"{k}={v}" for k, v in summary.items()))
        print()
    print(f"== top {top} counters ==")
    width = max((len(name) for name, _ in _top_counters(registry, top)), default=0)
    for name, value in _top_counters(registry, top):
        print(f"{name:<{width}}  {value}")


def _print_replay_text(summary: dict) -> None:
    print(
        f"crash-point sweep: workload={summary.get('workload')} "
        f"seed={summary.get('seed')} "
        f"violations={summary.get('total_violations')}"
    )
    for config in summary.get("configs", []):
        print(f"\n== mode={config['mode']} survivor={config['survivor_fraction']} ==")
        print(
            f"   points: {config['points_swept']}/{config['points_total']} swept, "
            f"events: "
            + ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(config["events_by_kind"].items())
            )
        )
        recovery = config.get("recovery", {})
        phases = recovery.get("phases", {})
        if phases:
            runs = recovery.get("runs", 0)
            print(f"   recovery phases over {runs} run(s):")
            width = max(len(name) for name in phases)
            for name, agg in phases.items():
                print(
                    f"     {name:<{width}}  total {agg['total_seconds'] * 1e3:9.3f} ms"
                    f"  mean {agg['mean_seconds'] * 1e3:8.3f} ms"
                    f"  max {agg['max_seconds'] * 1e3:8.3f} ms"
                )
        if config.get("violations"):
            print(f"   VIOLATIONS: {len(config['violations'])}")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Run a restart workload (or replay a crash-sweep "
        "report) and print recovery phase trees plus top counters.",
    )
    parser.add_argument(
        "--mode",
        choices=["nvm", "log", "both"],
        default="both",
        help="durability mode(s) for the workload (default: both)",
    )
    parser.add_argument(
        "--rows", type=int, default=20000, help="rows to load (default 20000)"
    )
    parser.add_argument(
        "--replay",
        metavar="SWEEP_JSON",
        help="render an existing crash-sweep JSON report instead of "
        "running a workload",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "prometheus"],
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--top", type=int, default=12, help="counters to list (default 12)"
    )
    args = parser.parse_args(argv)

    if args.replay:
        with open(args.replay) as f:
            summary = json.load(f)
        if args.format == "json":
            print(json.dumps(summary, indent=2, sort_keys=True))
        elif args.format == "prometheus":
            print(
                "error: --format prometheus needs a live registry; "
                "replay mode has none",
                file=sys.stderr,
            )
            return 2
        else:
            _print_replay_text(summary)
        return 0

    # A fresh registry so the report reflects this run only.
    previous = set_registry(MetricsRegistry())
    try:
        modes = ["nvm", "log"] if args.mode == "both" else [args.mode]
        results = []
        with tempfile.TemporaryDirectory(prefix="obs-report-") as tmp:
            for mode in modes:
                results.append(_run_workload(mode, args.rows, f"{tmp}/{mode}"))
        registry = get_registry()
        if args.format == "json":
            print(
                json.dumps(
                    {"workloads": results, "registry": registry.snapshot()},
                    indent=2,
                    sort_keys=True,
                    default=str,
                )
            )
        elif args.format == "prometheus":
            print(to_prometheus(registry), end="")
        else:
            _print_workload_text(results, registry, args.top)
    finally:
        set_registry(previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
