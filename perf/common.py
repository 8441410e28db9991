"""Shared pieces: run sizes, latency statistics, failure accounting,
environment capture."""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: ``--seconds`` the op-count constants below are calibrated for: at
#: this value the timed phase of every workload lasts roughly that long
#: on the 2-core reference container.
NOMINAL_SECONDS = 10


@dataclass(frozen=True)
class Sizes:
    """Fixed counts of one run — constants, never durations, so that
    single-threaded counters repeat exactly for a given command line."""

    preload: int  # rows loaded during set-up
    ops: int  # timed operations
    warmup: int  # untimed operations before them
    reference: int  # traced runs only: ops run untraced right after the timed ones
    cycles: int  # crash -> reopen -> first-answer probe repetitions
    setups: int = 3  # set-up is repeated; ``setup_s`` is the median


#: (preload rows, timed ops per nominal second, restart cycles).
#: Op counts are half of ISSUE 12's table at ``--seconds 10`` so that
#: 92 driver runs fit the contract's total-time cap.
_BASE = {
    "oltp_nvm": (100_000, 2_000, 25),
    "oltp_log": (100_000, 2_000, 3),
    "analytics_nvm": (200_000, 100, 24),
    "served_nvm": (100_000, 1_500, 5),
}

WORKLOADS = tuple(_BASE)


def sizes_for(workload: str, seconds: float, scale: float) -> Sizes:
    """``--scale`` multiplies everything; ``--seconds`` only the timed ops."""
    preload, per_second, cycles = _BASE[workload]
    ops = max(40, int(round(per_second * seconds * scale)))
    return Sizes(
        preload=max(500, int(round(preload * scale))),
        ops=ops,
        warmup=max(10, ops // 20),
        reference=max(20, ops * 3 // 20),
        cycles=max(1, int(round(cycles * scale))),
    )


# ----------------------------------------------------------------------
# Latency statistics
# ----------------------------------------------------------------------


#: The gated tail percentile. p99 is reported too, but ungated (see
#: ``tail_quantile``): on this shared host it moves by 15–35% between
#: runs of the same code (p95 by up to 20% where merges run), p90 by 3–11%.
GATED_TAIL = 0.90
#: A tail percentile needs this many samples to be called p99 ...
P99_SAMPLES = 1000
#: ... and is otherwise the highest one with this many samples beyond it.
SAMPLES_BEYOND = 10


def tail_quantile(n: int) -> float:
    """p99 where there are ≥ 1,000 samples; otherwise the highest
    quantile that still has ≥ 10 samples beyond it (never below p50)."""
    if n >= P99_SAMPLES:
        return 0.99
    return max(0.5, 1.0 - SAMPLES_BEYOND / n) if n else 0.5


def latency_summary(seconds: Sequence[float]) -> dict:
    """Median, p90 and the highest supportable tail of one latency
    class, in milliseconds, with the sample count."""
    values = np.asarray(seconds, dtype=np.float64)
    n = int(values.size)
    if n == 0:
        return {"n": 0, "p50_ms": 0.0, "p90_ms": 0.0, "tail_ms": 0.0, "tail_quantile": 0.5}
    q = tail_quantile(n)
    p50, p90, tail = np.quantile(values, [0.5, GATED_TAIL, q])
    return {
        "n": n,
        "p50_ms": float(p50) * 1e3,
        "p90_ms": float(p90) * 1e3,
        "tail_ms": float(tail) * 1e3,
        "tail_quantile": q,
    }


def best_of(seconds: Sequence[float]) -> float:
    """The fastest of repeated timings of the same section.

    Interference from the host only ever adds time, and for
    page-fault-heavy sections (a reopen and its first scan, a preload, a
    process start) it arrives in streaks of seconds in which they take
    up to 3× longer; a run's median then lands in either mode (measured
    spread of the median over a run's restart cycles: 0.46–0.57; of the
    minimum: 0.02–0.12).
    """
    return float(min(seconds))


def end_to_end_result(
    *,
    stream: dict,
    ops: int,
    kinds,
    is_write,
    setup_s: Sequence[float],
    restart_s: Sequence[float],
    restart_factor: float,
    space_amp: float,
    peak_rss_mb: float,
) -> dict:
    """The parts of a result every workload reports the same way.

    ``stream`` is :meth:`perf.calibrate.SpeedMeter.stream` over the timed
    operations; ``kinds`` / ``is_write`` classify them position by
    position. ``setup_s`` / ``restart_s`` are the repetitions as
    measured; ``restart_factor`` is the restart phase's speed factor
    (1.0 where restart is reported as measured).
    """
    lat, raw = stream["latency"], stream["raw_latency"]
    writes, reads = latency_summary(lat[is_write]), latency_summary(lat[~is_write])
    return {
        "end_to_end": {
            "setup_s": best_of(setup_s),
            "ops_per_s": ops / stream["reported_s"],
            "write_p50_ms": writes["p50_ms"],
            "write_p90_ms": writes["p90_ms"],
            "read_p50_ms": reads["p50_ms"],
            "read_p90_ms": reads["p90_ms"],
            "restart_s": best_of(restart_s) * restart_factor,
            "space_amp": space_amp,
            "peak_rss_mb": peak_rss_mb,
        },
        "samples": {
            "write": writes,
            "read": reads,
            "per_type": {
                kind: int((kinds == kind).sum()) for kind in sorted(set(kinds.tolist()))
            },
            "setup_s": list(setup_s),
            "restart_s": list(restart_s),
            "restart_factor": restart_factor,
        },
        "raw": {
            "what": "the operation stream before host-speed calibration",
            "ops_per_s": ops / stream["wall_s"],
            "write": latency_summary(raw[is_write]),
            "read": latency_summary(raw[~is_write]),
            "host_speed": stream["host_speed"],
            "blocks": stream["blocks"],
        },
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def peak_rss_mib() -> float:
    """High-water resident set of this process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------


@dataclass
class Failures:
    """Everything attempted and everything that went wrong.

    One unit = one operation or one oracle check; a raised exception, a
    non-OK reply, a wrong result, a lost acked write and a visible
    in-flight write each count one failure.
    """

    attempted: int = 0
    failed: int = 0
    examples: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 20:
            self.examples.append(what)

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Environment and protocol record
# ----------------------------------------------------------------------


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (Linux)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                prefix = mount if mount.endswith("/") else mount + "/"
                if (path + "/").startswith(prefix) and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def commit_id() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def plain(value):
    """Dataclasses / enums / numpy scalars as JSON-ready data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def environment(workdir: str) -> dict:
    return {
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workdir_fs": fs_type(workdir),
        "argv": sys.argv[1:],
    }


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def src_env() -> dict:
    """Environment for a child process that must import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
