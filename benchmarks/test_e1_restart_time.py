"""E1 — restart time vs dataset size (the paper's headline figure).

Paper claim: recovering a 92.2 GB dataset takes ~53 s with the log-based
approach while Hyrise-NV recovers in under one second, *independent of
dataset size*.

Expected shape at our scale: LOG restart grows roughly linearly with the
row count (both as pure log replay and as checkpoint load); NVM restart
stays flat; the NVM/LOG ratio therefore grows with size and exceeds an
order of magnitude well before the largest point. The NVM points are an
indexed, merged main, and the first indexed point read after the reopen
(the engine usable again, the paper's measure) stays flat too.

Note: every test here uses the ``benchmark`` fixture so the whole module
runs under ``pytest --benchmark-only``; the sweep tables are printed in
the terminal summary and appended to ``benchmarks/results.txt``.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_series, format_table
from repro.core.config import DurabilityMode
from repro.core.database import Database

from benchmarks.conftest import build_wide_db, time_first_indexed_read, time_restart

SIZES = [4_000, 8_000, 16_000, 32_000, 64_000]


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Populated, cleanly closed databases for every (mode, size) point."""
    base = tmp_path_factory.mktemp("e1")
    points = {}
    for rows in SIZES:
        for mode, checkpoint, tag in [
            (DurabilityMode.LOG, False, "log_replay"),
            (DurabilityMode.LOG, True, "log_checkpoint"),
            (DurabilityMode.NVM, False, "nvm"),
        ]:
            path = str(base / f"{tag}-{rows}")
            cfg = build_wide_db(
                path, mode, rows, checkpoint=checkpoint, index=tag == "nvm"
            )
            points[(tag, rows)] = (path, cfg)
    return points


def test_e1_restart_time_sweep(prepared, experiment_report, benchmark):
    rows_out = []
    series = {"log_replay": [], "log_checkpoint": [], "nvm": []}
    first_reads = []
    for rows in SIZES:
        record = {"rows": rows}
        for tag in series:
            path, cfg = prepared[(tag, rows)]
            seconds, db = time_restart(path, cfg)
            assert db.query("wide").count == rows
            db.close()
            record[f"{tag}_s"] = seconds
            series[tag].append(seconds)
        path, cfg = prepared[("nvm", rows)]
        record["nvm_first_read_s"] = time_first_indexed_read(path, cfg, rows // 2)
        first_reads.append(record["nvm_first_read_s"])
        record["speedup_vs_replay"] = record["log_replay_s"] / record["nvm_s"]
        rows_out.append(record)

    report = format_table(
        rows_out,
        columns=[
            "rows",
            "log_replay_s",
            "log_checkpoint_s",
            "nvm_s",
            "nvm_first_read_s",
            "speedup_vs_replay",
        ],
        title="E1: restart time vs dataset size",
    )
    report += "\n" + format_series("nvm", SIZES, series["nvm"])
    report += "\n" + format_series("log_replay", SIZES, series["log_replay"])
    experiment_report(report)

    # Shape assertions (the reproduction's claims):
    # 1. log restart grows with data; nvm stays near-flat.
    assert series["log_replay"][-1] > series["log_replay"][0] * 4
    assert series["nvm"][-1] < series["nvm"][0] * 5 + 0.05
    # 2. so does the first indexed point read after it.
    assert max(first_reads) <= 2 * min(first_reads), first_reads
    # 3. at the largest size NVM wins by >= an order of magnitude.
    assert rows_out[-1]["speedup_vs_replay"] > 10

    # The benchmarked operation: NVM cold open at the largest size.
    path, cfg = prepared[("nvm", SIZES[-1])]
    benchmark.pedantic(
        lambda: Database(path, cfg).close(), rounds=5, iterations=1
    )


def test_e1_log_restart_scales_with_data(prepared, benchmark):
    """Benchmark the log-replay cold open at the largest dataset."""
    path, cfg = prepared[("log_replay", SIZES[-1])]
    benchmark.pedantic(
        lambda: Database(path, cfg).close(), rounds=3, iterations=1
    )
