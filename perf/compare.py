"""Compare two sets of runs, metric by metric.

    python3 perf/compare.py A/ B/

``A/`` and ``B/`` hold the ``result-*.json`` files ``perf/run.py --out``
wrote (untraced runs; ≥ 2 per workload and side). For every workload ×
end-to-end metric it prints each side's median and quartiles, the gap of
B's median relative to A's (the base), each side's spread (inter-quartile
distance ÷ median) and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``within bound`` — B's median is not worse than A's by more than the
  bound (or every B run reads better than every A run);
* ``worse`` — it is, and the runs separate or the spread is small enough
  for the gap to mean something;
* ``unresolved`` — a side's spread is wider than the bound and the two
  sides' runs interleave: the data cannot tell.

A run with failed operations makes its workload ``worse`` (the bound on
failures is 0). Exits 1 if anything is ``worse``; ``A/ A/`` style
same-code comparisons are the A/A acceptance check.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = _ROOT


def load(directory: str) -> dict:
    """``{workload: [result record, ...]}`` of the untraced runs."""
    runs: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            record = json.load(f)
        if not record.get("traced"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _q2, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, gap)``; gap = (median B − median A) ÷ median A."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    gap = (med_b - med_a) / med_a if med_a else 0.0
    worse_by = gap if better == "lower" else -gap
    if better == "lower":
        b_all_better, b_all_worse = max(b) < min(a), min(b) > max(a)
    else:
        b_all_better, b_all_worse = min(b) > max(a), max(b) < min(a)
    if b_all_better:
        return "within bound", gap
    noisy = max(spread(a), spread(b)) > bound
    if noisy and not b_all_worse:
        return "unresolved", gap
    return ("worse" if worse_by > bound else "within bound"), gap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    side_a, side_b = load(argv[0]), load(argv[1])
    any_worse = False
    for workload in sorted(set(side_a) & set(side_b)):
        runs_a, runs_b = side_a[workload], side_b[workload]
        print(f"{workload}: {len(runs_a)} runs in A, {len(runs_b)} in B")
        print(
            f"  {'metric':14s} {'A q1':>10s} {'A med':>10s} {'A q3':>10s} "
            f"{'B q1':>10s} {'B med':>10s} {'B q3':>10s} {'gap/A':>8s} "
            f"{'sprd A':>7s} {'sprd B':>7s} {'bound':>6s}  verdict"
        )
        for metric in metrics:
            name = metric["name"]
            a = [r["end_to_end"][name] for r in runs_a]
            b = [r["end_to_end"][name] for r in runs_b]
            what, gap = verdict(a, b, metric["better"], metric["bound"])
            any_worse |= what == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"  {name:14s} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} "
                f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} {gap:+8.3f} "
                f"{spread(a):7.3f} {spread(b):7.3f} {metric['bound']:6.2f}  {what}"
            )
        failed_a = sum(r["failed"] for r in runs_a)
        failed_b = sum(r["failed"] for r in runs_b)
        attempted_b = sum(r["attempted"] for r in runs_b)
        what = "worse" if failed_b else "within bound"
        any_worse |= bool(failed_b)
        print(
            f"  failed_share   A {failed_a} failed; B {failed_b} of "
            f"{attempted_b} attempted (bound 0)  {what}"
        )
    missing = sorted(set(side_a) ^ set(side_b))
    if missing:
        print(f"workloads present on one side only: {missing}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
