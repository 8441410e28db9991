"""Run one workload of the performance ledger in this (fresh) process.

    python3 perf/run.py --workload oltp_nvm --seed 1 --seconds 10 --trace 0

Prints every metric by name with its unit, writes the full result
(environment, protocol, samples) to ``perf/out/``, and ends standard
output with the one-line JSON object the benchmark contract asks for.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs
:mod:`perf.trace`, reports the per-layer metrics and writes
``perf/out/trace-<workload>.json``. See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Run as a script, sys.path[0] is perf/ itself, where trace.py would
    # shadow the standard library's ``trace``; the package root belongs
    # there instead.
    sys.path[0] = _ROOT
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(1, os.path.join(_ROOT, "src"))

from perf import common  # noqa: E402


def build_workload(args, sizes, workdir, tracer):
    if args.workload == "served_nvm":
        from perf.served import ServedWorkload

        return ServedWorkload(sizes, args.seed, workdir, traced=tracer is not None)
    from perf.engine_workloads import AnalyticsWorkload, OltpWorkload

    options = dict(strict_pmem=args.strict_pmem, tracer=tracer)
    if args.workload == "analytics_nvm":
        return AnalyticsWorkload("nvm", sizes, args.seed, workdir, **options)
    mode = args.workload.rsplit("_", 1)[1]
    return OltpWorkload(mode, sizes, args.seed, workdir, **options)


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=common.NOMINAL_SECONDS,
        help="nominal length of the timed phase; sets the fixed op count",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplies preload, op counts and restart cycles (smoke: 0.05)",
    )
    parser.add_argument("--workdir", help="where engines live (default: perf/out/work)")
    parser.add_argument("--out", default=os.path.join(_ROOT, "perf", "out"))
    parser.add_argument(
        "--strict-pmem",
        action="store_true",
        help="PMemMode.STRICT for in-process NVM engines (smoke test)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the engine from {common.SRC}: {exc}", file=sys.stderr)
        return 2

    spec = common.load_benchmark_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    os.makedirs(args.out, exist_ok=True)
    workdir = args.workdir or os.path.join(args.out, "work")
    run_dir = os.path.join(workdir, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    sizes = common.sizes_for(args.workload, args.seconds, args.scale)

    tracer = None
    if args.trace:
        from perf.trace import Tracer

        tracer = Tracer()
    workload = build_workload(args, sizes, run_dir, tracer)
    started = time.time()
    try:
        result = workload.run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = workload.failures
    values = result["per_layer"] if args.trace else result["end_to_end"]
    missing = set(units) - set(values)
    if missing:
        print(f"metrics declared but not measured: {sorted(missing)}", file=sys.stderr)
        return 3
    values = {name: values[name] for name in units}
    if not all(math.isfinite(v) for v in values.values()):
        print(f"non-finite metric in {values}", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "traced": bool(args.trace),
        "started_unix": started,
        "environment": common.environment(workdir),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failed_share": failures.share,
        "failure_examples": failures.examples,
        **{k: v for k, v in result.items() if k != "trace"},
    }
    stem = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    kind = "layers" if args.trace else "result"
    with open(os.path.join(args.out, f"{kind}-{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        with open(os.path.join(args.out, f"trace-{args.workload}.json"), "w") as f:
            json.dump(result["trace"], f)

    print_table(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"scale={args.scale:g} trace={args.trace}",
        values,
        units,
    )
    print(
        f"  attempted={failures.attempted} failed={failures.failed} "
        f"failed_share={failures.share:.6g}"
    )
    for example in failures.examples:
        print(f"  FAILED: {example}")
    print(
        json.dumps(
            {
                "correct": failures.failed == 0,
                "attempted": failures.attempted,
                "failed": failures.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
