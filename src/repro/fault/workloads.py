"""Deterministic sweep workloads and the committed-state oracle.

A sweep workload is a fixed setup (table + initial bulk load, run
*before* crash injection arms) followed by a deterministic sequence of
steps — each step one autocommit operation or maintenance action. The
:class:`Oracle` shadows the engine: after a crash at an arbitrary
persistence boundary, the recovered state must equal the committed
shadow plus an all-or-nothing application of the in-flight step's
atomicity groups (one per op for concurrent steps, the whole step
otherwise).

Rows are ``{"key": int, "note": str}``; keys are never reused and notes
are globally unique, so pre- and post-states of any step are always
distinguishable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.storage.types import DataType

#: Table every sweep workload runs against.
TABLE = "kv"
SCHEMA = {"key": DataType.INT64, "note": DataType.STRING}

WORKLOAD_NAMES = (
    "ycsb", "batch", "maint", "concurrent", "online", "replicated", "ckpt", "attach")
#: Workloads with an ``attach`` step, which ships to a follower.
REPLICATED = ("replicated", "attach")
#: Step kinds that run one autocommit transaction per op, on a thread each.
MIXES = ("concurrent_mix", "merge_mix", "ckpt_mix")


@dataclass(frozen=True)
class Step:
    """One workload step. ``rows`` for inserts, ``key``/``note`` for
    point updates and deletes; merge/checkpoint carry no payload.

    ``concurrent_mix`` packs many single-op transactions into one step,
    executed from one thread each: every ``(key, note)`` pair is an
    independent autocommit operation on its own key — a fresh key is an
    insert, a live key an update, ``note is None`` a delete — so each
    pair forms its own atomicity group under crash injection.
    ``merge_mix`` / ``ckpt_mix`` race a merge / checkpoint against them.
    ``hold`` leaves its pairs' one transaction open for the ``commit`` or
    ``abort`` step with the same ``rows`` (see :meth:`_Planner.hold`).
    """

    kind: str  # insert | insert_many | bulk | update | delete |
    #            concurrent_mix | merge_mix | ckpt_mix | merge | checkpoint |
    #            hold | commit | abort | attach
    rows: tuple = ()  # ((key, note), ...)
    key: int = -1
    note: Optional[str] = None  # None for a delete

    def effects(self) -> dict:
        """Post-state this step installs: key -> note (None = deleted).

        Empty for maintenance steps — merge and checkpoint must never
        change logical contents, crash or no crash, nor does the one a
        ``merge_mix`` or ``ckpt_mix`` races against its ops.
        """
        if self.kind in ("insert", "insert_many", "bulk", "commit", *MIXES):
            return dict(self.rows)
        if self.kind in ("update", "delete"):
            return {self.key: self.note}
        return {}


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    seed: int
    initial_rows: tuple  # ((key, note), ...) — committed baseline
    steps: tuple

    @property
    def baseline(self) -> dict:
        return dict(self.initial_rows)


class Oracle:
    """Shadow of what an engine must remember across a power failure.

    ``committed`` holds the effects of every step that *returned*;
    ``pending`` is the step in flight when the power died (None if the
    crash hit between steps or after the last one).
    """

    def __init__(self, baseline: dict):
        self.committed = dict(baseline)
        self.pending: Optional[Step] = None

    def begin_step(self, step: Step) -> None:
        self.pending = step

    def commit_step(self) -> None:
        assert self.pending is not None
        apply_effects(self.committed, self.pending.effects())
        self.pending = None


def apply_effects(state: dict, effects: dict) -> None:
    """Install ``effects`` (key -> note, None = deleted) into ``state``."""
    for key, note in effects.items():
        if note is None:
            state.pop(key, None)
        else:
            state[key] = note


class _Planner:
    """Seeded generator of steps with consistent key/note bookkeeping."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._next_key = 0
        self._note_seq = 0
        self.live: list[int] = []  # keys visible at this point of the plan

    def note(self) -> str:
        self._note_seq += 1
        return f"v{self._note_seq:05d}"

    def fresh_rows(self, count: int) -> tuple:
        rows = []
        for _ in range(count):
            key = self._next_key
            self._next_key += 1
            self.live.append(key)
            rows.append((key, self.note()))
        return tuple(rows)

    def insert(self) -> Step:
        return Step("insert", rows=self.fresh_rows(1))

    def insert_many(self, count: int) -> Step:
        return Step("insert_many", rows=self.fresh_rows(count))

    def bulk(self, count: int) -> Step:
        return Step("bulk", rows=self.fresh_rows(count))

    def update(self) -> Step:
        key = self.rng.choice(self.live)
        return Step("update", key=key, note=self.note())

    def delete(self) -> Step:
        key = self.rng.choice(self.live)
        self.live.remove(key)
        return Step("delete", key=key)

    def concurrent_mix(
        self, inserts: int, updates: int, deletes: int, kind="concurrent_mix"
    ) -> Step:
        """One step of ``inserts + updates + deletes`` concurrent ops
        (``kind`` one of :data:`MIXES`).

        Targets are all-distinct keys, so the concurrent transactions
        never conflict with each other — each op's survival after a
        crash is independently all-or-nothing.
        """
        targets = self.rng.sample(sorted(self.live), updates + deletes)
        rows: list[tuple] = []
        for key in targets[:updates]:
            rows.append((key, self.note()))
        for key in targets[updates:]:
            self.live.remove(key)
            rows.append((key, None))
        rows.extend(self.fresh_rows(inserts))
        self.rng.shuffle(rows)
        return Step(kind, rows=tuple(rows))

    def hold(self, inserts: int, updates: int, deletes: int) -> Step:
        """An open transaction; its keys leave the plan (nothing waits on them)."""
        step = self.concurrent_mix(inserts, updates, deletes, "hold")
        self.live = [key for key in self.live if key not in dict(step.rows)]
        return step


def make_workload(name: str, seed: int = 0) -> SweepWorkload:
    """Build a named preset. Same (name, seed) -> identical plan."""
    planner = _Planner(seed)
    if name == "ycsb":
        # Read-modify-write mix in the spirit of YCSB-A plus the two
        # maintenance actions, so crash points land inside every
        # operation class the engine has.
        initial = planner.fresh_rows(24)
        steps: list[Step] = []
        for _ in range(5):
            steps.append(_mixed_step(planner))
        steps.append(Step("merge"))
        steps.append(Step("checkpoint"))
        for _ in range(5):
            steps.append(_mixed_step(planner))
        steps.append(planner.insert_many(6))
    elif name == "batch":
        # Batch-heavy: exercises the vectorized multi-row commit path
        # and whole-batch atomicity.
        initial = planner.fresh_rows(12)
        steps = [
            planner.insert_many(8),
            planner.bulk(6),
            Step("merge"),
            planner.insert_many(5),
            planner.delete(),
            Step("checkpoint"),
            planner.update(),
            planner.insert_many(4),
        ]
    elif name == "maint":
        # Maintenance-heavy: most crash points land inside merge and
        # checkpoint, which must be invisible to logical state.
        initial = planner.fresh_rows(16)
        steps = [
            planner.insert_many(4),
            Step("merge"),
            planner.update(),
            planner.delete(),
            Step("merge"),
            Step("checkpoint"),
            planner.insert(),
            Step("merge"),
            Step("checkpoint"),
        ]
    elif name == "concurrent":
        # Concurrent writers: each concurrent_mix step drives one
        # thread per op through the thread-safe commit pipeline, so
        # crash points land while several transactions are in flight at
        # once; maintenance steps in between check that merge and
        # checkpoint still hold up between concurrent bursts.
        initial = planner.fresh_rows(16)
        steps = [
            planner.concurrent_mix(3, 2, 1),
            planner.insert_many(4),
            planner.concurrent_mix(2, 3, 1),
            Step("merge"),
            planner.concurrent_mix(3, 1, 2),
            Step("checkpoint"),
            planner.concurrent_mix(2, 2, 2),
        ]
    elif name == "online":
        # Online merge under fire: merges run concurrently with writer
        # threads, so crash points land inside fold chunks and cutovers
        # while transactions are in flight — the sweep's check that the
        # incremental merge never tears logical state.
        initial = planner.fresh_rows(20)
        steps = [
            planner.insert_many(6),
            planner.concurrent_mix(3, 2, 1, "merge_mix"),
            planner.concurrent_mix(2, 2, 1),
            planner.concurrent_mix(2, 3, 2, "merge_mix"),
            planner.insert(),
            Step("merge"),
            planner.concurrent_mix(3, 1, 1, "merge_mix"),
        ]
    elif name == "replicated":
        # Attach a follower, then run: the sweep kills the *primary* at
        # every persistence boundary, promotes the follower, and verifies that
        # every acknowledged commit survived on it (per ack mode). A
        # serial spine keeps crash-point numbering deterministic; the
        # one concurrent burst exercises the ack barrier under racing
        # committers. Covers every record type the shipper streams:
        # single insert, batched insert_many, bulk load, invalidate
        # (update/delete), merge.
        initial = planner.fresh_rows(12)
        steps = [
            Step("attach"),
            planner.insert(),
            planner.insert_many(4),
            planner.update(),
            Step("merge"),
            planner.bulk(4),
            planner.delete(),
            planner.concurrent_mix(2, 1, 1),
            planner.insert_many(3),
        ]
    elif name == "ckpt":
        # Checkpoints beside open transactions: each ckpt_mix holds one
        # written transaction open across the checkpoint it races.
        initial = planner.fresh_rows(16)
        steps = [
            planner.insert_many(4),
            planner.concurrent_mix(4, 3, 2, "ckpt_mix"),
            planner.update(),
            Step("merge"),
            planner.concurrent_mix(3, 4, 2, "ckpt_mix"),
            planner.delete(),
            planner.concurrent_mix(4, 3, 2, "ckpt_mix"),
        ]
    elif name == "attach":
        # A follower attaches beside three open transactions: after it,
        # one commits, one aborts and one is still open at the crash.
        initial = planner.fresh_rows(12)
        held = [planner.hold(2, 1, 1), planner.hold(1, 1, 1), planner.hold(2, 1, 0)]
        steps = [
            planner.insert_many(3), Step("merge"), *held, planner.update(),
            Step("attach"),
            planner.insert(), Step("commit", rows=held[0].rows),
            planner.delete(), Step("abort", rows=held[1].rows),
            Step("checkpoint"), planner.insert_many(3),
        ]
    else:
        raise ValueError(f"unknown workload {name!r} (have {WORKLOAD_NAMES})")
    return SweepWorkload(name, seed, initial, tuple(steps))


def _mixed_step(planner: _Planner) -> Step:
    roll = planner.rng.random()
    if roll < 0.35:
        return planner.insert()
    if roll < 0.55:
        return planner.insert_many(planner.rng.randint(3, 6))
    if roll < 0.80:
        return planner.update()
    if roll < 0.90:
        return planner.delete()
    return planner.bulk(4)
