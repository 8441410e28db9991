"""Tests for the crash-point sweep harness (``repro.fault``)."""

import json

import pytest

from repro.fault.inject import CrashPointInjector, SimulatedPowerFailure
from repro.fault.sweep import CrashSweep, SweepSettings, main
from repro.fault.workloads import (
    SCHEMA,
    TABLE,
    Oracle,
    Step,
    make_workload,
)
from repro.nvm.latency import get_persistence_hook, persistence_event


class TestInjector:
    def test_counting_mode_tallies_without_firing(self):
        with CrashPointInjector() as inj:
            persistence_event("flush")
            persistence_event("flush")
            persistence_event("drain")
        assert inj.events == 3
        assert inj.by_kind == {"flush": 2, "drain": 1}
        assert not inj.fired
        assert get_persistence_hook() is None

    def test_fires_at_k_and_power_stays_off(self):
        with CrashPointInjector(crash_at=2) as inj:
            persistence_event("flush")
            with pytest.raises(SimulatedPowerFailure):
                persistence_event("drain")
            assert inj.fired
            assert inj.fired_kind == "drain"
            # every later event must fail too — the power is off
            with pytest.raises(SimulatedPowerFailure):
                persistence_event("wal_fsync")
        assert inj.events == 2  # post-failure attempts are not points

    def test_hook_uninstalled_even_on_failure(self):
        with pytest.raises(SimulatedPowerFailure):
            with CrashPointInjector(crash_at=1):
                persistence_event("flush")
        assert get_persistence_hook() is None
        persistence_event("flush")  # no hook installed: a no-op

    def test_not_swallowed_by_except_exception(self):
        # Engine or workload code with `except Exception` cleanup must
        # not be able to absorb a power failure and keep running.
        with CrashPointInjector(crash_at=1):
            with pytest.raises(SimulatedPowerFailure):
                try:
                    persistence_event("flush")
                except Exception:  # noqa: BLE001
                    pytest.fail("power failure was swallowed")

    def test_crash_at_is_one_based(self):
        with pytest.raises(ValueError):
            CrashPointInjector(crash_at=0)


class TestWorkloads:
    def test_same_seed_same_plan(self):
        assert make_workload("ycsb", 7) == make_workload("ycsb", 7)
        assert make_workload("ycsb", 7) != make_workload("ycsb", 8)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_workload("nope", 1)

    def test_oracle_applies_committed_steps_only(self):
        oracle = Oracle({1: "a"})
        oracle.begin_step(Step("insert", rows=((2, "b"),)))
        assert oracle.pending is not None
        assert oracle.committed == {1: "a"}  # not yet returned
        oracle.commit_step()
        assert oracle.pending is None
        assert oracle.committed == {1: "a", 2: "b"}
        oracle.begin_step(Step("delete", key=1))
        oracle.commit_step()
        assert oracle.committed == {2: "b"}

    def test_maintenance_steps_have_no_effects(self):
        assert Step("merge").effects() == {}
        assert Step("checkpoint").effects() == {}


class TestPendingGroups:
    def test_single_engine_batch_is_one_group(self, tmp_path):
        sweep = CrashSweep(str(tmp_path), SweepSettings(mode="nvm"))
        step = Step("insert_many", rows=((1, "a"), (2, "b")))
        assert sweep._pending_groups(step) == [{1: "a", 2: "b"}]

    def test_maintenance_and_idle_have_no_groups(self, tmp_path):
        sweep = CrashSweep(str(tmp_path), SweepSettings(mode="nvm"))
        assert sweep._pending_groups(Step("merge")) == []
        assert sweep._pending_groups(None) == []

    def test_a_ckpt_mix_is_one_group_per_op(self, tmp_path):
        sweep = CrashSweep(str(tmp_path), SweepSettings(mode="log"))
        step = Step("ckpt_mix", rows=((1, "a"), (2, None)))
        assert step.effects() == {1: "a", 2: None}
        assert sweep._pending_groups(step) == [{1: "a"}, {2: None}]


class TestCkptMix:
    def test_first_op_is_open_across_the_checkpoint(self, tmp_path):
        """The checkpoint a ``ckpt_mix`` races runs while its first op's
        transaction is open, written but not committed; that op commits
        after the checkpoint and is acknowledged like the others."""
        sweep = CrashSweep(str(tmp_path / "sweep"), SweepSettings(mode="log"))
        engine = sweep._open(str(tmp_path / "db"))
        engine.create_table(TABLE, SCHEMA)
        engine.insert_many(TABLE, [{"key": k, "note": "old"} for k in (1, 2)])
        seen = []
        checkpoint = engine.checkpoint

        def observed_checkpoint():
            held = [
                ctx for ctx in engine._manager.active.values() if ctx.ops
            ]
            seen.append(len(held))
            return checkpoint()

        engine.checkpoint = observed_checkpoint
        step = Step("ckpt_mix", rows=((1, "new"), (3, "fresh"), (2, None)))
        sweep._execute(engine, step)
        assert seen == [1]
        assert sweep._completed_ops == {1, 2, 3}
        assert len(engine._manager.active) == 0
        rows = engine.query(TABLE).rows()
        assert {r["key"]: r["note"] for r in rows} == {1: "new", 3: "fresh"}
        engine.close()


class TestChecker:
    """The invariant checker must actually detect broken states."""

    @pytest.fixture
    def sweep_and_engine(self, tmp_path):
        sweep = CrashSweep(str(tmp_path / "sweep"), SweepSettings(mode="nvm"))
        engine = sweep._open(str(tmp_path / "db"))
        engine.create_table(TABLE, SCHEMA)
        engine.insert(TABLE, {"key": 1, "note": "real"})
        yield sweep, engine
        engine.close()

    def test_flags_lost_committed_row(self, sweep_and_engine):
        sweep, engine = sweep_and_engine
        problems = sweep._check_state(engine, Oracle({1: "real", 2: "gone"}))
        assert any("lost" in p for p in problems)

    def test_flags_phantom_row(self, sweep_and_engine):
        sweep, engine = sweep_and_engine
        problems = sweep._check_state(engine, Oracle({}))
        assert any("phantom" in p for p in problems)

    def test_flags_wrong_value(self, sweep_and_engine):
        sweep, engine = sweep_and_engine
        problems = sweep._check_state(engine, Oracle({1: "other"}))
        assert any("expected" in p for p in problems)

    def test_flags_torn_pending_batch(self, sweep_and_engine):
        sweep, engine = sweep_and_engine
        oracle = Oracle({})
        oracle.begin_step(
            Step("insert_many", rows=((1, "real"), (5, "missing")))
        )
        problems = sweep._check_state(engine, oracle)
        assert any("atomicity violation" in p for p in problems)

    def test_accepts_pending_batch_fully_applied_or_absent(
        self, sweep_and_engine
    ):
        sweep, engine = sweep_and_engine
        applied = Oracle({})
        applied.begin_step(Step("insert", rows=((1, "real"),)))
        assert sweep._check_state(engine, applied) == []
        absent = Oracle({1: "real"})
        absent.begin_step(Step("insert", rows=((7, "never-landed"),)))
        assert sweep._check_state(engine, absent) == []


#: (mode, survivor_fraction) — all three drivers, each survivor regime.
SWEEP_CELLS = [
    ("nvm", 0.0),
    ("nvm", 0.5),
    ("nvm", 1.0),
    ("log", 0.0),
    ("log", 0.5),
    ("log", 1.0),
    ("none", 0.0),
]


@pytest.mark.parametrize(
    "mode,survivor",
    SWEEP_CELLS,
    ids=[f"{m}-f{f}" for m, f in SWEEP_CELLS],
)
def test_sweep_reports_zero_violations(tmp_path, mode, survivor):
    settings = SweepSettings(
        workload="batch",
        mode=mode,
        survivor_fraction=survivor,
        sample=8,
        seed=11,
    )
    report = CrashSweep(str(tmp_path), settings).run()
    assert report["violations"] == []
    assert report["points_not_fired"] == 0
    # Every mode has sweepable boundaries now: NONE still emits the
    # online-merge fold/cutover events (a crash there loses the lot,
    # which the oracle accepts as the NONE contract).
    assert report["points_total"] > 0
    assert report["points_swept"] >= min(8, report["points_total"])
    assert report["crash_kinds_swept"]
    assert report["recovery"]["runs"] == report["points_swept"] + 1


@pytest.mark.parametrize("mode", ["nvm", "log"])
def test_sweep_concurrent_workload(tmp_path, mode):
    """Crash points land while several writer threads are in flight.

    Event counts are nondeterministic under concurrency (fsync
    coalescing depends on scheduling), so unlike the serial workloads
    ``points_not_fired`` may be nonzero — a point past the replayed
    run's event count simply crashes after the last step, which is
    still a valid (and checked) recovery scenario.
    """
    settings = SweepSettings(
        workload="concurrent",
        mode=mode,
        sample=8,
        seed=11,
    )
    report = CrashSweep(str(tmp_path), settings).run()
    assert report["violations"] == []
    assert report["points_total"] > 0
    assert report["crash_kinds_swept"]


@pytest.mark.parametrize("mode", ["nvm", "log"])
def test_sweep_online_merge_workload(tmp_path, mode):
    """Crash points land inside fold chunks and cutovers while writer
    threads race an online merge (``merge_mix`` steps).

    Like the ``concurrent`` workload, event counts are nondeterministic
    (how many fold chunks run before the crash depends on scheduling),
    so ``points_not_fired`` may be nonzero; every fired point must still
    recover to a committed-plus-atomic-pending state.
    """
    settings = SweepSettings(
        workload="online",
        mode=mode,
        sample=8,
        seed=5,
    )
    report = CrashSweep(str(tmp_path), settings).run()
    assert report["violations"] == []
    assert report["points_total"] > 0
    assert report["crash_kinds_swept"]


@pytest.mark.parametrize("mode", ["log", "nvm"])
def test_sweep_ckpt_workload(tmp_path, mode):
    """Crash points land inside checkpoints raced against writer threads
    while one transaction, already written, is open across each of them.
    On NVM the checkpoint is refused at once and the steps are plain
    concurrent writes around an open transaction."""
    settings = SweepSettings(workload="ckpt", mode=mode, sample=8, seed=7)
    report = CrashSweep(str(tmp_path), settings).run()
    assert report["violations"] == []
    assert report["points_total"] > 0
    if mode == "log":
        # One link per ckpt_mix, and one after each merge.
        plan = make_workload("ckpt", 7).steps
        links = sum(step.kind in ("ckpt_mix", "merge") for step in plan)
        assert report["events_by_kind"]["manifest_publish"] == links


REPLICATED_CELLS = [
    ("nvm", "semi_sync"),
    ("nvm", "async"),
    ("log", "semi_sync"),
    ("log", "async"),
]


@pytest.mark.parametrize(
    "mode,ack",
    REPLICATED_CELLS,
    ids=[f"{m}-{a}" for m, a in REPLICATED_CELLS],
)
def test_sweep_replicated_workload(tmp_path, mode, ack):
    """Kill the primary at persistence boundaries while WAL shipping to
    a follower; promote the follower and hold it to the ack-mode
    contract (semi-sync: every acked commit survives; async: the
    replica equals some commit prefix). The promoted replica then takes
    a sync-committed write, crashes, and must recover it — the full
    post-failover lifecycle, fsync-on-open of the shipped tail included.
    """
    settings = SweepSettings(
        workload="replicated",
        mode=mode,
        sample=6,
        seed=11,
        ack_mode=ack,
    )
    report = CrashSweep(str(tmp_path), settings).run()
    assert report["violations"] == []
    assert report["points_total"] > 0
    assert report["ack_mode"] == ack
    assert report["crash_kinds_swept"]


@pytest.mark.parametrize(
    "mode,ack",
    REPLICATED_CELLS,
    ids=[f"{m}-{a}" for m, a in REPLICATED_CELLS],
)
def test_sweep_attach_workload(tmp_path, mode, ack):
    """A follower attaches mid-run beside three open transactions (one
    commits after it, one aborts, one is open at the crash); crash
    points land before, inside and after the attach."""
    settings = SweepSettings(
        workload="attach", mode=mode, sample=10, seed=7, ack_mode=ack
    )
    report = CrashSweep(str(tmp_path), settings).run()
    assert report["violations"] == []
    assert report["points_total"] > 0
    assert report["ack_mode"] == ack


class TestAttachWorkload:
    def test_the_attach_runs_beside_three_open_transactions(self, tmp_path):
        sweep = CrashSweep(
            str(tmp_path),
            SweepSettings(workload="attach", mode="nvm", ack_mode="semi_sync"),
        )
        attach, seen = sweep._attach_replication, []

        def observed_attach(engine):
            active = engine._manager.active.values()
            seen.append(sum(bool(ctx.ops) for ctx in active))
            return attach(engine)

        sweep._attach_replication = observed_attach
        result, _ = sweep.run_point(None)
        assert seen == [3]
        assert result.problems == []

    def test_hold_keys_leave_the_plan(self):
        steps = make_workload("attach", 7).steps
        held = {k for s in steps if s.kind == "hold" for k, _ in s.rows}
        later = {s.key for s in steps if s.kind in ("update", "delete")}
        assert held and not held & later
        ends = [s for s in steps if s.kind in ("commit", "abort")]
        assert [s.kind for s in ends] == ["commit", "abort"]
        assert Step("abort", rows=ends[1].rows).effects() == {}
        assert ends[0].effects() == dict(ends[0].rows)


def test_replicated_workload_rejects_unshippable_cells(tmp_path):
    with pytest.raises(ValueError, match="shippable"):
        CrashSweep(
            str(tmp_path), SweepSettings(workload="replicated", mode="none")
        )


def test_replicated_cli_cell(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "--workload",
            "replicated",
            "--sample",
            "3",
            "--seed",
            "5",
            "--modes",
            "log,none",  # none must be skipped, not crash
            "--acks",
            "semi_sync",
            "--out",
            str(out),
            "--root",
            str(tmp_path / "scratch"),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["total_violations"] == 0
    (cell,) = data["configs"]  # the none cell was skipped
    assert cell["mode"] == "log"
    assert cell["ack_mode"] == "semi_sync"
    assert "OK" in capsys.readouterr().out


def test_cli_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "--workload",
            "maint",
            "--sample",
            "4",
            "--seed",
            "3",
            "--modes",
            "log",
            "--out",
            str(out),
            "--root",
            str(tmp_path / "scratch"),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["total_violations"] == 0
    (cell,) = data["configs"]
    assert cell["mode"] == "log"
    assert cell["points_total"] > 0
    assert cell["recovery"]["runs"] >= 1
    assert "OK" in capsys.readouterr().out
