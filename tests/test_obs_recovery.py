"""End-to-end observability: span-backed recovery, boundary counters,
engine telemetry, and the report CLI.

These are the acceptance tests for the observability subsystem: the
recovery span tree must account for (nearly) all of the recovery wall
time, and the persistence-event counters must agree with the pool's own
access statistics because both are fed from the same choke point.
"""

import json

import pytest

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.obs import boundary
from repro.obs.report import main as report_main
from repro.storage.types import DataType

from tests.conftest import make_config

ITEMS = {"id": DataType.INT64, "name": DataType.STRING}


@pytest.fixture(autouse=True)
def fresh_registry():
    """Isolate every test in its own default registry."""
    previous = set_registry(MetricsRegistry())
    try:
        yield get_registry()
    finally:
        set_registry(previous)


def _load(engine, rows=200):
    engine.create_table("items", ITEMS)
    engine.bulk_insert(
        "items", [{"id": i, "name": f"n{i % 5}"} for i in range(rows)]
    )


class TestRecoverySpans:
    def test_nvm_phases_cover_recovery_wall_time(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        _load(db, 2000)
        # Phase durations sum to (nearly) the recovery wall time: the
        # driver is instrumented end to end, not sampled. Measured
        # coverage is 95-99%, but the recovery is ~2 ms, so one
        # descheduling between two phases is a tenth of it (1 run in
        # 200 read 0.89): the best of three restarts has to reach 90%.
        coverage = []
        for _ in range(3):
            db = db.restart()
            report = db.last_recovery
            span = report.span
            assert span.name == "recovery:nvm"
            assert span.finished
            assert span.child_seconds() <= span.duration_s + 1e-9
            assert report.total_seconds == pytest.approx(span.duration_s)
            coverage.append(span.child_seconds() / span.duration_s)
        assert max(coverage) >= 0.90
        db.close()

    def test_log_phases_present_and_timed(self, tmp_path):
        cfg = make_config(DurabilityMode.LOG)
        db = Database(str(tmp_path / "db"), cfg)
        _load(db)
        db.checkpoint()
        db.insert("items", {"id": 999, "name": "tail"})
        db = db.restart()
        span = db.last_recovery.span
        names = [c.name for c in span.children]
        assert names == [
            "checkpoint_load",
            "log_replay",
            "log_reopen",
            "index_rebuild",
        ]
        assert all(c.finished for c in span.children)
        assert span.find("checkpoint_load").duration_s > 0
        db.close()


class TestBoundaryCounters:
    def test_flush_counter_matches_pool_stats(self, tmp_path):
        """Telemetry and the pool's own stats see the same stream."""
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        _load(db)
        stats = db._pool.stats
        assert stats.flush_calls > 0
        assert boundary.events_total("flush") == stats.flush_calls
        assert boundary.events_total("drain") == stats.drain_calls
        snapshot = get_registry().snapshot()
        assert snapshot["nvm_lines_flushed_total"] == stats.lines_flushed
        db.close()

    def test_wal_fsync_counter_matches_writer(self, tmp_path):
        cfg = make_config(DurabilityMode.LOG, group_commit_size=1)
        db = Database(str(tmp_path / "db"), cfg)
        db.create_table("items", ITEMS)
        # Single-row commits: one WAL record + fsync each (a bulk_insert
        # would coalesce into a single batched record).
        for i in range(20):
            db.insert("items", {"id": i, "name": "x"})
        snapshot = get_registry().snapshot()
        assert boundary.events_total("wal_fsync") >= 20
        assert snapshot["wal_records_total"] >= 20
        assert snapshot["wal_bytes_written_total"] > 0
        assert (
            snapshot["wal_fsync_seconds"]["count"]
            == boundary.events_total("wal_fsync")
        )
        db.close()

    def test_emit_counts_before_hook_kills(self):
        """An event the fault injector kills still counts: the power
        died *at* that boundary, which is the point being enumerated."""
        before = boundary.events_total("flush")

        def hook(kind):
            raise RuntimeError("simulated power failure")

        boundary.set_hook(hook)
        try:
            with pytest.raises(RuntimeError):
                boundary.emit("flush")
        finally:
            boundary.set_hook(None)
        assert boundary.events_total("flush") == before + 1

    def test_fault_inject_module_shares_choke_point(self):
        """repro.fault installs its hook through the same boundary."""
        from repro.fault.inject import set_persistence_hook

        assert set_persistence_hook is boundary.set_hook


class TestEngineTelemetry:
    def test_recovery_and_merge_counters(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        _load(db)
        db.merge("items")
        snapshot = get_registry().snapshot()
        assert snapshot['engine_recoveries_total{mode="nvm"}'] == 1
        assert snapshot["engine_merges_total"] == 1
        assert snapshot["engine_merge_seconds"]["count"] == 1
        db = db.restart()
        snapshot = get_registry().snapshot()
        assert snapshot['engine_recoveries_total{mode="nvm"}'] == 2
        assert snapshot['engine_recovery_seconds{mode="nvm"}']["count"] == 2
        db.close()

    def test_checkpoint_counters(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.LOG))
        _load(db)
        db.checkpoint()
        snapshot = get_registry().snapshot()
        assert snapshot["engine_checkpoints_total"] == 1
        assert snapshot["engine_checkpoint_bytes_total"] > 0
        assert snapshot["engine_checkpoint_seconds"]["count"] == 1
        db.close()

    def test_metrics_snapshot_shapes(self, tmp_path):
        db = Database(str(tmp_path / "nvm"), make_config(DurabilityMode.NVM))
        _load(db, 20)
        snap = db.metrics_snapshot()
        assert snap["mode"] == "nvm"
        assert 'engine_recoveries_total{mode="nvm"}' in snap["registry"]
        assert snap["recovery"]["mode"] == "nvm"
        json.dumps(snap, sort_keys=True, default=str)
        db.close()

    def test_disabled_registry_keeps_engine_working(self, tmp_path):
        previous = set_registry(MetricsRegistry(enabled=False))
        try:
            db = Database(
                str(tmp_path / "db"), make_config(DurabilityMode.NVM)
            )
            _load(db, 50)
            db.merge("items")
            db = db.restart()
            assert db.query("items").count == 50
            # Counters report nothing; span tracing still works (it is
            # part of the recovery report, not the registry).
            assert get_registry().snapshot() == {}
            assert db.last_recovery.span.finished
            db.close()
        finally:
            set_registry(previous)


class TestReportCLI:
    def test_workload_text(self, capsys):
        assert report_main(["--rows", "300", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "== nvm restart: 300 rows" in out
        assert "== log restart: 300 rows" in out
        assert "pool_open" in out
        assert "log_replay" in out
        assert "== top 5 counters ==" in out

    def test_workload_text_log(self, capsys):
        assert report_main(["--rows", "300", "--mode", "log"]) == 0
        out = capsys.readouterr().out
        assert "== log restart: 300 rows ==" in out
        assert out.count("recovery:log:") == 1  # one tree
        assert "rows_recovered=309" in out

    def test_workload_json(self, capsys):
        assert (
            report_main(["--rows", "200", "--mode", "nvm", "--format", "json"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        (workload,) = data["workloads"]
        assert workload["mode"] == "nvm"
        assert workload["recovery"]["span"]["name"] == "recovery:nvm"
        assert "persistence_events_total{kind=\"flush\"}" in data["registry"]

    def test_workload_prometheus(self, capsys):
        assert (
            report_main(
                ["--rows", "200", "--mode", "log", "--format", "prometheus"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE persistence_events_total counter" in out
        assert "wal_records_total" in out

    def test_cli_leaves_default_registry_untouched(self):
        registry = get_registry()
        report_main(["--rows", "100", "--mode", "nvm"])
        assert get_registry() is registry

    def test_replay_mode(self, tmp_path, capsys):
        summary = {
            "workload": "batch",
            "seed": 7,
            "total_violations": 0,
            "configs": [
                {
                    "mode": "nvm",
                    "survivor_fraction": 0.0,
                    "points_swept": 10,
                    "points_total": 10,
                    "events_by_kind": {"flush": 8, "drain": 2},
                    "recovery": {
                        "runs": 10,
                        "phases": {
                            "pool_open": {
                                "total_seconds": 0.01,
                                "mean_seconds": 0.001,
                                "max_seconds": 0.002,
                            }
                        },
                    },
                    "violations": [],
                }
            ],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(summary))
        assert report_main(["--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "crash-point sweep: workload=batch" in out
        assert "pool_open" in out
        # Prometheus needs a live registry; replay mode has none.
        assert report_main(["--replay", str(path), "--format", "prometheus"]) == 2
