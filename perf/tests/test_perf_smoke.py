"""Smoke: all four workloads at --scale 0.05, traced and untraced.

In-process NVM engines run with PMemMode.STRICT, so the simulated power
loss really discards unflushed cache lines (the served workload's
SIGKILL cannot: the server CLI has no pmem-mode switch). Every metric
declared in BENCHMARK.json must come out exactly once, finite, under a
well-formed name.
"""

import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from perf import common, layers

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int, out: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(common.ROOT, "perf", "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "10",
            "--trace", str(trace),
            "--scale", "0.05",
            "--strict-pmem",
            "--out", out,
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("perf-out"))
    jobs = [(w, t) for w in common.WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda job: run(job[0], job[1], out), jobs))
    return dict(zip(jobs, done)), out


def test_benchmark_json_lists_the_code_s_metrics_and_workloads():
    spec = common.load_benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        layers.PER_LAYER
    )
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["perf"] and spec["command"] == ["python3", "perf/run.py"]


@pytest.mark.parametrize("workload", common.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted_once_and_finite(results, workload, trace):
    spec = common.load_benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    line = results[0][(workload, trace)]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert NAME.fullmatch(metric["name"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_result_files_record_environment_and_protocol(results):
    _lines, out = results
    records = [
        json.load(open(os.path.join(out, name)))
        for name in os.listdir(out)
        if name.startswith("result-")
    ]
    assert len(records) == len(common.WORKLOADS)
    for record in records:
        env = record["environment"]
        for key in ("commit", "nproc", "python", "numpy", "workdir_fs"):
            assert env[key] not in (None, "")
        assert record["seed"] == 3 and record["scale"] == 0.05
        assert record["protocol"]["sizes"]["ops"] >= 40
        assert record["samples"]["per_type"]
        assert record["raw"]["ops_per_s"] > 0
    # Runs clean their work directories up.
    assert not os.listdir(os.path.join(out, "work"))
    traces = [n for n in os.listdir(out) if n.startswith("trace-")]
    assert sorted(traces) == sorted(f"trace-{w}.json" for w in common.WORKLOADS)


def test_layers_a_workload_does_not_exercise_report_zero(results):
    lines, _out = results
    oltp = lines[("oltp_nvm", 1)]["metrics"]
    assert oltp["wal.records"]["value"] == 0 and oltp["server.requests"]["value"] == 0
    assert oltp["nvm.flush_calls"]["value"] > 0 and oltp["txn.commits"]["value"] > 0
    log = lines[("oltp_log", 1)]["metrics"]
    assert log["nvm.flush_calls"]["value"] == 0 and log["wal.fsyncs"]["value"] > 0
    assert log["recovery.records_replayed"]["value"] > 0
    analytics = lines[("analytics_nvm", 1)]["metrics"]
    assert analytics["index.probes"]["value"] == 0
    assert analytics["core.merge_count"]["value"] > 0
    served = lines[("served_nvm", 1)]["metrics"]
    assert served["server.requests"]["value"] > 0
    assert served["recovery.process_start_s"]["value"] > 0
