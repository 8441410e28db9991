"""Exhaustive crash-point sweep: kill the engine at every persistence
boundary, recover, and check the durability contract.

For a deterministic workload the sweep first runs once in counting mode
to enumerate the persistence-boundary events (the crash points), then
re-runs it from scratch for each point k — or a seeded sample of them —
killing the engine exactly when event k is attempted, simulating the
power failure (``engine.crash``), recovering, and asserting:

* ``verify()`` reports no MVCC/storage invariant violations;
* every committed transaction's effects survived;
* no aborted or in-flight transaction's effects are visible, except
  that the single in-flight step may have landed *atomically*;
* maintenance actions (merge, checkpoint) changed nothing logical;
* a recovered NVM engine can be *used*: a merge (the first one sweeps
  the pool for what the crash leaked, and everything after it
  allocates from that), a few more transactions and another merge
  leave exactly the state they should — recycled memory must never be
  memory something durable still points to.

CLI::

    python -m repro.fault.sweep --workload ycsb --sample 200 --seed 7 \
        --modes nvm,log,none --survivors 0.0,0.5,1.0 \
        --out sweep-report.json

exits non-zero if any swept point violated an invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.core import Database, DurabilityMode, EngineConfig
from repro.fault.inject import CrashPointInjector, SimulatedPowerFailure
from repro.fault.workloads import (
    MIXES,
    REPLICATED,
    SCHEMA,
    TABLE,
    WORKLOAD_NAMES,
    Oracle,
    Step,
    apply_effects,
    make_workload,
)
from repro.nvm.pool import PMemMode
from repro.query.predicate import Eq
from repro.replication import AckMode, Follower, WalShipper
from repro.txn.errors import TransactionConflict

#: Small extents keep per-point engine setup cheap (the default 64 MiB
#: extent would dominate sweep runtime with file creation).
SWEEP_EXTENT = 2 * 1024 * 1024


@dataclass
class SweepSettings:
    workload: str = "ycsb"
    mode: str = "nvm"
    survivor_fraction: float = 0.0
    sample: Optional[int] = None
    seed: int = 7
    extent_size: int = SWEEP_EXTENT
    #: Ack mode for the replicated workloads (async/semi_sync/quorum).
    ack_mode: str = "semi_sync"


#: Key of the row the post-promotion pin writes (disjoint from any key a
#: workload planner can generate).
PIN_KEY = 10**9

#: What every recovered engine is asked to do next, between two merges
#: (keys and notes no workload generates).
_AFTER = 2 * 10**9
AFTER_RECOVERY = (
    Step("insert_many", rows=tuple((_AFTER + i, f"after-{i}") for i in range(3))),
    Step("update", key=_AFTER, note="after-3"),
    Step("delete", key=_AFTER + 1),
    Step("insert", rows=((_AFTER + 3, "after-4"),)),
)


def _write(txn, key: int, note: Optional[str]) -> None:
    """One op on ``key``: a delete when ``note`` is None, else an update
    of the live row or an insert of a fresh one."""
    refs = txn.query(TABLE, Eq("key", key)).refs()
    if note is None:
        txn.delete(TABLE, refs[0])
    elif refs:
        txn.update(TABLE, refs[0], {"note": note})
    else:
        txn.insert(TABLE, {"key": key, "note": note})


@dataclass
class PointResult:
    point: int  # 0 for the counting run (crash after the last step)
    fired: bool
    kind: Optional[str]  # event kind the power failure interrupted
    problems: list
    recovery_seconds: float
    recovery_phases: dict


class CrashSweep:
    """Drives the sweep for one (workload, mode, survivor) cell."""

    def __init__(self, root: str, settings: SweepSettings):
        self.root = root
        self.settings = settings
        self.workload = make_workload(settings.workload, settings.seed)
        self.mode = DurabilityMode(settings.mode)
        self.replicated = settings.workload in REPLICATED
        if self.replicated and self.mode is DurabilityMode.NONE:
            raise ValueError("a NONE-mode engine has no shippable log to replicate")
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------

    def _config(self) -> EngineConfig:
        return EngineConfig(
            mode=self.mode,
            extent_size=self.settings.extent_size,
            # STRICT pmem snapshots dirty cache lines so crash() can
            # revert (or partially keep, per survivor_fraction) exactly
            # the unflushed ones.
            pmem_mode=(
                PMemMode.STRICT if self.mode is DurabilityMode.NVM else PMemMode.FAST
            ),
            group_commit_size=1,  # sync commit: the contract being swept
            # A cutover starved by a crashed writer thread should give
            # up quickly — points inside merge_mix steps would otherwise
            # stall for the default window on every sweep iteration.
            merge_cutover_timeout_s=1.0,
        )

    def _open(self, path: str) -> Database:
        return Database(path, self._config())

    def _setup(self, engine: Database) -> None:
        engine.create_table(TABLE, SCHEMA)
        engine.bulk_insert(
            TABLE, [{"key": k, "note": n} for k, n in self.workload.initial_rows]
        )

    def _runnable_steps(self) -> list[Step]:
        # Checkpoints only exist in LOG mode; skipping them keeps point
        # numbering consistent within a mode (counting and sweeping use
        # the same filter).
        return [
            step
            for step in self.workload.steps
            if step.kind != "checkpoint" or self.mode is DurabilityMode.LOG
        ]

    def _execute(self, engine: Database, step: Step) -> None:
        # Completion tracking is per step: it qualifies the *pending*
        # step's atomicity groups, and a key completed by an earlier,
        # fully-committed step must not vouch for a later op on the
        # same key that never finished.
        self._completed_ops = set()
        if step.kind == "insert":
            key, note = step.rows[0]
            engine.insert(TABLE, {"key": key, "note": note})
        elif step.kind == "insert_many":
            engine.insert_many(
                TABLE, [{"key": k, "note": n} for k, n in step.rows]
            )
        elif step.kind == "bulk":
            engine.bulk_insert(
                TABLE, [{"key": k, "note": n} for k, n in step.rows]
            )
        elif step.kind in ("update", "delete"):
            # No abort-on-error handling on purpose: when the power
            # fails mid-transaction the process is gone; recovery, not
            # an except-block, must clean up.
            txn = engine.begin()
            _write(txn, step.key, step.note)
            txn.commit()
        elif step.kind in MIXES:
            self._execute_concurrent(engine, step)
        elif step.kind == "merge":
            engine.merge(TABLE)
        elif step.kind == "checkpoint":
            engine.checkpoint()
        elif step.kind == "hold":
            self._held[step.rows] = txn = engine.begin()
            for key, note in step.rows:
                _write(txn, key, note)
        elif step.kind in ("commit", "abort"):
            getattr(self._held.pop(step.rows), step.kind)()
        elif step.kind == "attach":
            # A power failure inside it leaves no follower to check.
            self._replication = self._attach_replication(engine)
        else:
            raise ValueError(f"unknown step kind {step.kind!r}")

    def _execute_concurrent(self, engine: Database, step: Step) -> None:
        """Run every (key, note) op of the step on its own thread.

        Each op is an independent autocommit transaction, so the crash
        point lands while several writers race through the commit
        pipeline. Ops whose ``commit()`` returned before the power died
        are recorded in ``self._completed_ops`` — their effects were
        acknowledged and must survive recovery unconditionally. A
        :class:`SimulatedPowerFailure` on any thread is re-raised here
        after every thread has stopped (the injector's breaker stays
        open, so no thread can persist anything past the cut).

        A ``merge_mix`` races an online merge on a thread of its own (a
        cutover that times out is benign: the merge is abandoned), a
        ``ckpt_mix`` a checkpoint that its first op's transaction
        straddles: written before any thread starts, committed after all.
        """
        failures: list[BaseException] = []
        lock = threading.Lock()
        side = {"merge_mix": lambda: engine.merge(TABLE),
                "ckpt_mix": engine.checkpoint}.get(step.kind)

        def run_op(key: int, note: Optional[str]) -> None:
            # A racing online-merge cutover can invalidate the refs a
            # transaction read (retryable conflict); retry the whole
            # transaction like a client would.
            for _ in range(8):
                txn = engine.begin()
                try:
                    _write(txn, key, note)
                    txn.commit()
                except TransactionConflict:
                    if txn.is_active:
                        txn.abort()
                    continue
                with lock:
                    self._completed_ops.add(key)
                return

        def run_side() -> None:
            try:
                side()
            except RuntimeError:
                pass  # a starved cutover, or a checkpoint without a log

        def run(action, *args) -> None:
            try:
                action(*args)
            except SimulatedPowerFailure as exc:
                with lock:
                    failures.append(exc)

        rows, held = list(step.rows), None
        if step.kind == "ckpt_mix":
            held_key, note = rows.pop(0)
            held = engine.begin()
            _write(held, held_key, note)
        threads = [
            threading.Thread(
                target=run, args=(run_op, key, note), name=f"sweep-writer-{key}"
            )
            for key, note in rows
        ]
        if side is not None:
            threads.append(threading.Thread(target=run, args=(run_side,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        if held is not None:
            held.commit()
            self._completed_ops.add(held_key)

    # ------------------------------------------------------------------
    # One crash point
    # ------------------------------------------------------------------

    def run_point(
        self, point: Optional[int]
    ) -> tuple[PointResult, CrashPointInjector]:
        """Run the workload, crash at ``point`` (None = after the last
        step, counting events), recover, validate, and clean up."""
        label = "count" if point is None else f"pt{point:06d}"
        path = os.path.join(self.root, label)
        shutil.rmtree(path, ignore_errors=True)

        engine = self._open(path)
        self._setup(engine)  # not injected: the baseline must exist
        self._replication, self._held = None, {}
        oracle = Oracle(self.workload.baseline)
        # Keys whose concurrent op's commit() returned before the power
        # died: those acknowledgements are binding (sync commit), so
        # recovery must keep them even though the step never finished.
        self._completed_ops: set = set()
        executed: list[Step] = []
        # Async cells: steps the follower was seen to apply in full.
        settle, floor = AckMode(self.settings.ack_mode) is AckMode.ASYNC, 0
        fired = False
        injector = CrashPointInjector(crash_at=point)
        with injector:
            try:
                for step in self._runnable_steps():
                    oracle.begin_step(step)
                    self._execute(engine, step)
                    oracle.commit_step()
                    executed.append(step)
                    if settle and self._replication is not None:
                        self._settle(engine)
                        floor = len(executed)
            except SimulatedPowerFailure:
                fired = True
            if self._replication is not None:
                # The wire goes down with the primary: records the
                # tailer had not shipped yet never reach the follower
                # (the in-flight-bytes case promotion must tolerate).
                try:
                    self._replication[0].stop()
                except SimulatedPowerFailure:
                    fired = True  # at the closing fsync of the ship log
            # Cut the power while the injector is still armed: threads
            # that outlive the failing one keep hitting the open breaker
            # instead of quietly persisting post-crash state in the
            # uninstall window.
            engine.crash(
                survivor_fraction=self.settings.survivor_fraction,
                seed=self.settings.seed * 100003 + (point or 0),
            )

        follower_problems: list = []
        if self._replication is not None:
            follower = self._replication[1]
            follower_problems = self._check_follower(
                follower, oracle, executed, floor
            )

        t0 = time.perf_counter()
        recovered = self._open(path)
        recovery_seconds = time.perf_counter() - t0
        try:
            problems = list(recovered.verify())
            problems.extend(self._check_state(recovered, oracle))
            if not problems:
                problems.extend(self._check_continues(recovered))
            problems.extend(follower_problems)
            phases = dict(recovered.last_recovery.phases)
        finally:
            recovered.close()
            shutil.rmtree(path, ignore_errors=True)
        return (
            PointResult(
                point=point or 0,
                fired=fired,
                kind=injector.fired_kind,
                problems=problems,
                recovery_seconds=recovery_seconds,
                recovery_phases=phases,
            ),
            injector,
        )

    # ------------------------------------------------------------------
    # Invariant checking
    # ------------------------------------------------------------------

    def _check_continues(self, engine: Database) -> list[str]:
        """Merge, run :data:`AFTER_RECOVERY`, merge again, re-check.

        The state just validated is the new baseline. The first merge
        runs the pool's post-restart sweep and builds its generation in
        what that freed, so a block wrongly taken for garbage — or freed
        before the pointer to it was durably gone — shows up as a wrong
        row or a broken invariant here.
        """
        if self.mode is not DurabilityMode.NVM:
            return []  # no pool: nothing is swept, nothing recycled
        found, _ = self._found_rows(engine)
        oracle = Oracle(found)
        self._completed_ops = set()
        for step in (Step("merge"), *AFTER_RECOVERY, Step("merge")):
            oracle.begin_step(step)
            self._execute(engine, step)
            oracle.commit_step()
        problems = list(engine.verify()) + self._check_state(engine, oracle)
        return [f"after recovery: {p}" for p in problems]

    def _found_rows(self, engine: Database) -> tuple[dict, list[str]]:
        try:
            rows = engine.query(TABLE).rows()
        except KeyError:
            # The table itself did not survive — expected in NONE mode.
            return {}, []
        problems = []
        found: dict = {}
        for row in rows:
            key = row["key"]
            if key in found:
                problems.append(
                    f"key {key} visible twice after recovery "
                    f"({found[key]!r} and {row['note']!r})"
                )
            found[key] = row["note"]
        return found, problems

    def _pending_groups(self, step: Optional[Step]) -> list[dict]:
        """Atomicity groups of the in-flight step: one all-or-nothing
        group per transaction it runs."""
        if step is None:
            return []
        effects = step.effects()
        if not effects:
            return []
        if step.kind in MIXES:
            # Every op is its own autocommit transaction on its own
            # thread: per-key all-or-nothing, independent of the rest.
            return [{key: note} for key, note in sorted(effects.items())]
        return [effects]

    def _oracle_expectation(self, oracle: Oracle) -> tuple[dict, list[dict]]:
        """(committed shadow, optional pending groups) for validation.

        Concurrent ops whose commit() was acknowledged are committed,
        not optional: fold them into the shadow and check them as
        strictly as finished steps.
        """
        committed = oracle.committed
        groups = self._pending_groups(oracle.pending)
        completed = getattr(self, "_completed_ops", set())
        if completed:
            committed = dict(committed)
            mandatory = [g for g in groups if set(g) <= completed]
            groups = [g for g in groups if not set(g) <= completed]
            for group in mandatory:
                apply_effects(committed, group)
        return committed, groups

    def _check_state(self, engine: Database, oracle: Oracle) -> list[str]:
        if self.mode is DurabilityMode.NONE:
            # Nothing may survive a power failure without durability.
            committed: dict = {}
            groups: list[dict] = []
        else:
            committed, groups = self._oracle_expectation(oracle)
        found, problems = self._found_rows(engine)
        problems.extend(self._diff(found, committed, groups, oracle.pending))
        return problems

    def _diff(
        self,
        found: dict,
        committed: dict,
        groups: list[dict],
        pending: Optional[Step],
    ) -> list[str]:
        """Compare recovered rows against a shadow + optional groups (of
        the step ``pending``)."""
        problems: list[str] = []
        expected = dict(committed)
        for index, group in enumerate(groups):
            verdicts = set()
            for key, new in group.items():
                old = committed.get(key)
                cur = found.get(key)
                applied = (key not in found) if new is None else (cur == new)
                untouched = (key not in found) if old is None else (cur == old)
                if applied:
                    verdicts.add("applied")
                elif untouched:
                    verdicts.add("untouched")
                else:
                    verdicts.add("corrupt")
                    problems.append(
                        f"key {key}: recovered value {cur!r} is neither the "
                        f"pre-step ({old!r}) nor post-step ({new!r}) state"
                    )
            if "corrupt" in verdicts:
                continue
            if len(verdicts) > 1:
                problems.append(
                    f"atomicity violation: in-flight group {index} of "
                    f"{pending.kind} applied partially "
                    f"(keys {sorted(group)})"
                )
            elif verdicts == {"applied"}:
                apply_effects(expected, group)

        pending_keys = set()
        for group in groups:
            pending_keys |= set(group)
        for key in sorted(set(expected) - set(found) - pending_keys):
            problems.append(
                f"committed row {key}={expected[key]!r} lost after recovery"
            )
        for key in sorted(set(found) - set(expected) - pending_keys):
            problems.append(
                f"phantom row {key}={found[key]!r} visible after recovery"
            )
        for key in sorted((set(found) & set(expected)) - pending_keys):
            if found[key] != expected[key]:
                problems.append(
                    f"row {key}: expected {expected[key]!r}, "
                    f"found {found[key]!r}"
                )
        return problems

    # ------------------------------------------------------------------
    # Replication (the `replicated` and `attach` workloads)
    # ------------------------------------------------------------------

    def _attach_replication(self, engine: Database):
        shipper = WalShipper(
            engine,
            ack_mode=self.settings.ack_mode,
            # Generous: a local follower acks in microseconds, so a
            # timeout would silently degrade the very guarantee the
            # sweep exists to check.
            ack_timeout_s=20.0,
        )
        follower = shipper.add_follower(Follower(engine.path + "-replica"))
        shipper.start()
        # Barrier the attach-time backlog (no ack mode waited on it), as
        # production would before relying on the replica: else an early
        # crash point races the tailer over rows no ack ever covered.
        if not shipper.sync_followers(timeout_s=20.0):
            raise RuntimeError("follower failed to apply the baseline")
        return shipper, follower

    def _settle(self, engine: Database) -> None:
        """Wait until the follower applied the primary's durable frontier:
        all of an NVM primary's ship log, the fsynced prefix of a LOG
        primary's log. Async shipping reaches no further (a merge record
        is never fsynced), and without the wait the tailer has usually
        shipped nothing past the attach when the crash comes."""
        wal = engine._driver.wal
        target = wal.lsn if self.mode is DurabilityMode.NVM else wal.durable_lsn
        if not self._replication[1].wait_for(target, timeout_s=20.0):
            raise RuntimeError("follower failed to apply the durable frontier")

    def _promoted_config(self) -> EngineConfig:
        return EngineConfig(
            mode=DurabilityMode.LOG,
            group_commit_size=1,
            merge_cutover_timeout_s=1.0,
        )

    def _check_follower(
        self, follower, oracle: Oracle, executed: list[Step], floor: int
    ) -> list[str]:
        """Promote the follower and hold it to its ack-mode contract.

        * semi_sync / quorum — every acknowledged commit waited for the
          follower's apply, so the promoted replica must pass the same
          check as a recovered primary: the full committed shadow plus
          all-or-nothing pending groups.
        * async — the follower holds some *prefix* of the commit
          history (bounded by the primary's fsync frontier at the cut):
          its state must equal the baseline plus the first k steps'
          effects plus an atomic subset of step k+1's groups, for some
          k at or past ``floor``, the steps it was seen to apply in
          full. Anything that matches no such prefix is a consistency
          bug, not mere staleness.

        Then the post-failover pin: the promoted engine takes a
        sync-committed write, crashes, and must recover it together
        with an unchanged pre-crash state — the full write-after-
        promotion lifecycle (fsync-on-open of the never-synced shipped
        tail included).
        """
        problems: list[str] = []
        promoted = follower.promote(self._promoted_config())
        try:
            problems.extend(
                f"follower: {p}" for p in promoted.verify()
            )
            found, dups = self._found_rows(promoted)
            problems.extend(f"follower: {p}" for p in dups)
            if AckMode(self.settings.ack_mode) is AckMode.ASYNC:
                diff = self._check_prefix(found, executed, oracle.pending, floor)
            else:
                committed, groups = self._oracle_expectation(oracle)
                diff = self._diff(found, committed, groups, oracle.pending)
            problems.extend(f"follower: {p}" for p in diff)
            problems.extend(self._check_promoted_pin(promoted, found))
        finally:
            shutil.rmtree(follower.path, ignore_errors=True)
        return problems

    def _check_prefix(
        self,
        found: dict,
        executed: list[Step],
        pending: Optional[Step],
        floor: int,
    ) -> list[str]:
        """Async contract: the replica equals *some* commit prefix that
        holds at least the first ``floor`` steps."""
        steps = list(executed)
        if pending is not None:
            steps.append(pending)
        shadow = dict(self.workload.baseline)
        shadows = [dict(shadow)]
        for step in steps:
            apply_effects(shadow, step.effects())
            shadows.append(dict(shadow))
        best: Optional[tuple[int, list[str]]] = None
        for k in range(len(steps), floor - 1, -1):
            boundary = steps[k] if k < len(steps) else None
            groups = self._pending_groups(boundary)
            diff = self._diff(found, shadows[k], groups, boundary)
            if not diff:
                return []
            if best is None or len(diff) < len(best[1]):
                best = (k, diff)
        return [
            f"replica matches no commit prefix (closest after {best[0]} "
            f"full steps): {p}"
            for p in best[1]
        ]

    def _check_promoted_pin(self, promoted: Database, found: dict) -> list[str]:
        """Write on the promoted replica, crash it, recover, re-check."""
        problems: list[str] = []
        promoted.insert(TABLE, {"key": PIN_KEY, "note": "post-failover"})
        promoted.crash(
            survivor_fraction=self.settings.survivor_fraction,
            seed=self.settings.seed,
        )
        reopened = Database(promoted.path, self._promoted_config())
        try:
            refound, dups = self._found_rows(reopened)
            problems.extend(f"promoted: {p}" for p in dups)
            if refound.pop(PIN_KEY, None) != "post-failover":
                problems.append(
                    "promoted: sync-committed post-failover row lost "
                    "across the promoted engine's own crash+recovery"
                )
            if refound != found:
                changed = {
                    k: (found.get(k), refound.get(k))
                    for k in set(found) | set(refound)
                    if found.get(k) != refound.get(k)
                }
                problems.append(
                    "promoted: pre-crash state changed across the promoted "
                    f"engine's own crash+recovery: {changed}"
                )
            problems.extend(f"promoted: {p}" for p in reopened.verify())
        finally:
            reopened.close()
        return problems

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------

    def run(self) -> dict:
        """Count the points, sweep all (or a sample), return the report."""
        started = time.perf_counter()
        count_result, counter = self.run_point(None)
        total = counter.events

        points = list(range(1, total + 1))
        sampled = (
            self.settings.sample is not None and self.settings.sample < total
        )
        if sampled:
            rng = random.Random(self.settings.seed)
            keep = set(rng.sample(points, self.settings.sample))
            keep.update((1, total))  # always hit the edges
            points = sorted(keep)

        violations = []
        if count_result.problems:
            # The uninjected run must validate too — if it does not,
            # every per-point verdict would be noise.
            violations.append(
                {"point": 0, "kind": None, "problems": count_result.problems}
            )
        not_fired = 0
        crash_kinds: Counter = Counter()
        recovery_times = [count_result.recovery_seconds]
        phase_totals: dict[str, float] = {}
        phase_peaks: dict[str, float] = {}

        def fold_phases(result: PointResult) -> None:
            for name, seconds in result.recovery_phases.items():
                phase_totals[name] = phase_totals.get(name, 0.0) + seconds
                phase_peaks[name] = max(phase_peaks.get(name, 0.0), seconds)

        fold_phases(count_result)
        for point in points:
            result, _ = self.run_point(point)
            if not result.fired:
                not_fired += 1
            if result.kind is not None:
                crash_kinds[result.kind] += 1
            if result.problems:
                violations.append(
                    {
                        "point": point,
                        "kind": result.kind,
                        "problems": result.problems,
                    }
                )
            recovery_times.append(result.recovery_seconds)
            fold_phases(result)

        runs = len(recovery_times)
        return {
            "workload": self.settings.workload,
            "mode": self.settings.mode,
            "ack_mode": self.settings.ack_mode if self.replicated else None,
            "survivor_fraction": self.settings.survivor_fraction,
            "seed": self.settings.seed,
            "sampled": sampled,
            "points_total": total,
            "points_swept": len(points),
            "points_not_fired": not_fired,
            "events_by_kind": dict(counter.by_kind),
            "crash_kinds_swept": dict(crash_kinds),
            "violations": violations,
            "recovery": {
                "runs": runs,
                "mean_seconds": sum(recovery_times) / runs,
                "max_seconds": max(recovery_times),
                "phases": {
                    name: {
                        "total_seconds": phase_totals[name],
                        "mean_seconds": phase_totals[name] / runs,
                        "max_seconds": phase_peaks[name],
                    }
                    for name in sorted(phase_totals)
                },
            },
            "elapsed_seconds": time.perf_counter() - started,
        }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _csv(raw: str, cast) -> list:
    return [cast(token.strip()) for token in raw.split(",") if token.strip()]


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fault.sweep",
        description="Exhaustive crash-point sweep over persistence boundaries.",
    )
    parser.add_argument("--workload", default="ycsb", choices=sorted(WORKLOAD_NAMES))
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        help="sweep a seeded sample of this many points (default: all)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--modes",
        default="nvm,log,none",
        help="comma list of durability modes to sweep (default: all three)",
    )
    parser.add_argument(
        "--survivors",
        default="0.0",
        help="comma list of survivor fractions for unflushed state",
    )
    parser.add_argument(
        "--acks",
        default="semi_sync",
        help="comma list of ack modes for the replicated and attach "
        "workloads (async,semi_sync,quorum); ignored otherwise",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--root",
        default=None,
        help="scratch directory (default: a fresh temp dir, removed after)",
    )
    args = parser.parse_args(argv)

    modes = _csv(args.modes, str)
    survivors = _csv(args.survivors, float)
    replicated = args.workload in REPLICATED
    ack_modes = _csv(args.acks, str) if replicated else ["semi_sync"]

    configs = []
    for mode in modes:
        if replicated and mode == "none":
            continue  # nothing shippable without a durable log or pool
        for survivor in survivors:
            if mode == "none" and survivor != survivors[0]:
                # NONE's only boundaries are the online-merge fold/
                # cutover events, and a crash there loses everything
                # regardless of survivor fraction; one cell suffices.
                continue
            for ack in ack_modes:
                configs.append((mode, survivor, ack))

    if args.root is not None:
        root, cleanup = args.root, False
        os.makedirs(root, exist_ok=True)
    else:
        root, cleanup = tempfile.mkdtemp(prefix="crash-sweep-"), True

    reports = []
    try:
        for mode, survivor, ack in configs:
            settings = SweepSettings(
                workload=args.workload,
                mode=mode,
                survivor_fraction=survivor,
                sample=args.sample,
                seed=args.seed,
                ack_mode=ack,
            )
            cell = os.path.join(root, f"{mode}-f{survivor}-{ack}")
            report = CrashSweep(cell, settings).run()
            reports.append(report)
            acks_note = f" acks={ack}" if replicated else ""
            print(
                f"[{mode} survivor={survivor}{acks_note}] "
                f"swept {report['points_swept']}/{report['points_total']} "
                f"points, {len(report['violations'])} violation(s), "
                f"recovery mean {report['recovery']['mean_seconds'] * 1e3:.1f} ms "
                f"max {report['recovery']['max_seconds'] * 1e3:.1f} ms, "
                f"{report['elapsed_seconds']:.1f}s",
                flush=True,
            )
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)

    total_violations = sum(len(r["violations"]) for r in reports)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "sample": args.sample,
        "total_violations": total_violations,
        "configs": reports,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
        print(f"report written to {args.out}")
    if total_violations:
        print(f"FAIL: {total_violations} invariant violation(s)", file=sys.stderr)
        return 1
    print("OK: zero invariant violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
