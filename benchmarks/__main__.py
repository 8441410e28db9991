"""Run the experiments and check their bars, without pytest.

Usage::

    PYTHONPATH=src python -m benchmarks [--quick] [--only E1,E3] [--out report.md]

Every selected entry runs, prints its table, and has ``check`` applied
to its rows; the exit status is 1 if any bar failed. ``--json PATH``
dumps every entry's raw rows into one document keyed by id, and
``--json-dir DIR`` writes one ``BENCH_<id>.json`` per entry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from benchmarks import EXPERIMENTS
from benchmarks.harness import render


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="shrink every sweep")
    parser.add_argument("--only", default="", help="comma-separated ids (e.g. E1,E3)")
    parser.add_argument("--out", default="", help="also write the report here")
    parser.add_argument("--json", default="", help="dump raw table rows as JSON here")
    parser.add_argument(
        "--json-dir", default="", help="write one BENCH_<id>.json per entry into DIR"
    )
    args = parser.parse_args(argv)
    wanted = {name.strip().upper() for name in args.only.split(",") if name.strip()}
    unknown = wanted - EXPERIMENTS.keys()
    if unknown:
        parser.error(f"unknown ids: {', '.join(sorted(unknown))}")

    results, sections, failed = {}, [], []
    for name, entry in EXPERIMENTS.items():
        if wanted and name not in wanted:
            continue
        start = time.perf_counter()
        rows = results[name] = entry.run(args.quick)
        elapsed = time.perf_counter() - start
        try:
            entry.check(rows, args.quick)
            verdict = "bars held"
        except AssertionError as exc:
            failed.append(name)
            line = traceback.extract_tb(exc.__traceback__)[-1].line
            verdict = f"BAR FAILED: {line}" + (f" ({exc})" if str(exc) else "")
        sections.append(
            f"{render(entry, rows)}\n({name} ran in {elapsed:.1f}s; {verdict})"
        )
        print(f"\n{sections[-1]}", flush=True)

    if args.out:
        with open(args.out, "w") as f:
            f.write("\n\n".join(sections) + "\n")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=2)
    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
        for name, rows in results.items():
            path = os.path.join(args.json_dir, f"BENCH_{name.lower()}.json")
            with open(path, "w") as f:
                json.dump({name: rows}, f, indent=2)
    if failed:
        print(f"\nbars failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
