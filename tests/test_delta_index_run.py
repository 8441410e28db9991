"""The volatile delta index as one sorted run plus a dict tail.

A batch that reaches its share of the run folds into it; a smaller one
goes to the tail.

Checked against the structure it replaced (a plain code -> positions
multimap, kept here as the oracle), through the engine's restart
catch-up, under threads racing the run's publication, through an index
created beside a writer, and by what the engine meters about the
catch-up.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import DurabilityMode
from repro.core.database import Database
from repro.index.delta_index import FOLD_SHARE, VolatileDeltaIndex
from repro.index.table_index import TableIndex
from repro.obs import MetricsRegistry, set_registry
from repro.query.predicate import Between, Eq, IsNull
from repro.storage.delta import DeltaPartition
from repro.storage.table import unpack_rowref
from repro.storage.types import NULL_CODE, DataType

from tests.conftest import make_config


class OracleDeltaIndex:
    """The multimap the run-plus-tail index replaced."""

    def __init__(self):
        self._map: dict[int, list[int]] = defaultdict(list)

    def add(self, code: int, position: int) -> None:
        self._map[code].append(position)

    def add_many(self, codes, first: int) -> None:
        for offset, code in enumerate(np.asarray(codes).tolist()):
            self._map[code].append(first + offset)

    def lookup(self, code: int) -> list[int]:
        return list(self._map.get(code, ()))

    def entry_count(self) -> int:
        return sum(len(v) for v in self._map.values())


# A few codes, the NULL code, and (for lookups) codes never registered.
_CODE_VALUES = [0, 1, 2, 3, 5, 8, NULL_CODE]
_CODES = st.sampled_from(_CODE_VALUES)
_PROBES = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 13, NULL_CODE - 1, NULL_CODE])
_BATCHES = st.lists(_CODES, max_size=12)


class RunPlusTailModel(RuleBasedStateMachine):
    """Every registration goes to both indexes, in position order (the
    contract ``TableIndex`` keeps); every lookup must agree."""

    def __init__(self):
        super().__init__()
        self.index = VolatileDeltaIndex()
        self.oracle = OracleDeltaIndex()
        self.rows = 0

    @rule(code=_CODES)
    def add(self, code):
        self.index.add(code, self.rows)
        self.oracle.add(code, self.rows)
        self.rows += 1

    def _add_many(self, batch):
        self.index.add_many(batch, self.rows)
        self.oracle.add_many(batch, self.rows)
        self.rows += len(batch)

    @rule(codes=_BATCHES)
    def add_many(self, codes):
        self._add_many(np.asarray(codes, dtype=np.uint32))

    @rule(size=st.integers(1, 400), seed=st.integers(0, 2**16))
    def add_large_batch(self, size, seed):
        """A batch big enough to fold into the run it follows."""
        rng = np.random.default_rng(seed)
        self._add_many(rng.choice(np.array(_CODE_VALUES, np.uint32), size))

    @rule(codes=_BATCHES)
    def refill(self, codes):
        """A fresh index caught up in one batch, as a catch-up fills it."""
        self.index = VolatileDeltaIndex()
        self.index.add_many(np.asarray(codes, dtype=np.uint32), 0)
        self.oracle = OracleDeltaIndex()
        self.oracle.add_many(codes, 0)
        self.rows = len(codes)

    @rule(code=_PROBES)
    def lookup(self, code):
        got = self.index.lookup(code)
        assert got.dtype == np.uint64
        assert got.tolist() == self.oracle.lookup(code)
        assert (np.diff(got.astype(np.int64)) > 0).all()

    @invariant()
    def entry_counts_match(self):
        assert self.index.entry_count() == self.oracle.entry_count()

    @invariant()
    def the_run_is_sorted_and_below_the_tail(self):
        codes, positions, tail = self.index._state
        assert (np.diff(codes.astype(np.int64)) >= 0).all()
        top = int(positions.max()) if positions.size else -1
        assert all(p > top for ps in tail.values() for p in ps)


TestRunPlusTailModel = RunPlusTailModel.TestCase
TestRunPlusTailModel.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)


class TestRun:
    def test_batches_and_rows_look_up_in_position_order(self):
        index = VolatileDeltaIndex()
        index.add_many(np.array([4, 1, 4, NULL_CODE], dtype=np.uint32), 10)
        index.add_many(np.array([1, 4], dtype=np.uint32), 14)
        index.add(4, 16)
        assert index.entry_count() == 7
        assert index.lookup(4).tolist() == [10, 12, 15, 16]
        assert index.lookup(1).tolist() == [11, 14]
        assert index.lookup(NULL_CODE).tolist() == [13]
        assert index.lookup(7).tolist() == []

    def test_a_small_batch_into_a_large_run_leaves_the_run_alone(self):
        """A batch of ≤ 64 rows into a 100k run goes to the tail: the
        run's arrays are the same objects, not a copy."""
        n = 100_000
        index = VolatileDeltaIndex()
        index.add_many((np.arange(n) % 997).astype(np.uint32), 0)
        codes, positions, _ = index._state
        for first in range(n, n + 10 * 64, 64):
            index.add_many(np.full(64, 5, np.uint32), first)
            assert index._state[0] is codes and index._state[1] is positions
        assert index.lookup(5).tolist()[-3:] == [n + 637, n + 638, n + 639]
        assert index.entry_count() == n + 640

    def test_the_tail_folds_before_it_reaches_its_share_of_the_run(self):
        index = VolatileDeltaIndex()
        index.add_many(np.zeros(1600, np.uint32), 0)
        rows = 1600
        for _ in range(40):
            index.add_many(np.array([1, 2, 1], np.uint32), rows)
            rows += 3
            assert index._tail_rows < FOLD_SHARE * index._state[0].size
        assert index._state[0].size > 1600, "no batch folded"
        assert index.entry_count() == rows
        assert index.lookup(1).size == 80 and index.lookup(2).size == 40

    def test_readers_racing_folds_see_a_prefix(self):
        """Probes racing batches that fold and batches that go to the
        tail see, per code, a prefix of its final positions: never a row
        twice (in the run and the tail) nor a gap."""
        rng = np.random.default_rng(11)
        sizes = [256] + [8, 40, 3, 24, 64] * 40
        batches = [rng.integers(0, 4, size).astype(np.uint32) for size in sizes]
        codes = np.concatenate(batches)
        expected = {c: np.flatnonzero(codes == c).tolist() for c in (0, 3)}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                index = VolatileDeltaIndex()
                done, seen = threading.Event(), []

                def probe():
                    while not done.is_set():
                        for code, want in expected.items():
                            got = index.lookup(code).tolist()
                            if got != want[: len(got)]:
                                seen.append((code, got))

                reader = threading.Thread(target=probe)
                reader.start()
                try:
                    first = 0
                    for batch in batches:
                        index.add_many(batch, first)
                        first += batch.size
                finally:
                    done.set()
                    reader.join(timeout=10)
                assert not reader.is_alive()
                assert seen == []
                for code, want in expected.items():
                    assert index.lookup(code).tolist() == want
        finally:
            sys.setswitchinterval(previous)

    def test_a_probe_does_not_cast_the_run(self):
        # ``searchsorted`` with a python int against a uint32 run
        # converts the whole run first: an O(delta) copy per probe.
        n = 1_000_000
        index = VolatileDeltaIndex()
        index.add_many(np.arange(n, dtype=np.uint32)[::-1], 0)
        tracemalloc.start()
        try:
            assert index.lookup(n // 3).tolist() == [n - 1 - n // 3]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"a probe allocated {peak} bytes"

    def test_readers_never_see_half_a_run(self):
        """Probes racing the run's publication see no run or all of it."""
        codes = np.random.default_rng(3).integers(0, 64, 4096).astype(np.uint32)
        expected = {
            c: np.flatnonzero(codes == c).tolist() for c in (0, 17, 63)
        }
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                index = VolatileDeltaIndex()
                done = threading.Event()
                seen = []

                def probe():
                    while not done.is_set():
                        for code, want in expected.items():
                            try:
                                got = index.lookup(code).tolist()
                            except Exception as exc:
                                got = repr(exc)
                            if got not in ([], want):
                                seen.append((code, got))

                reader = threading.Thread(target=probe)
                reader.start()
                try:
                    index.add_many(codes, 0)
                finally:
                    done.set()
                    reader.join(timeout=10)
                assert not reader.is_alive()
                assert seen == []
        finally:
            sys.setswitchinterval(previous)


SCHEMA = {"k": DataType.INT64, "v": DataType.STRING}


def _crashed_with_unindexed_delta(path, n=300):
    """An NVM engine crashed with ``n`` delta rows its volatile index
    forgot: a merged main below them, updates (so ids repeat across row
    versions) and a NULL among them."""
    cfg = make_config(DurabilityMode.NVM)
    db = Database(path, cfg)
    db.create_table("t", SCHEMA)
    db.create_index("t", "k")
    db.insert_many("t", [{"k": i % 40, "v": "main"} for i in range(80)])
    db.merge("t")
    db.insert_many("t", [{"k": i % 50, "v": f"d{i}"} for i in range(n)])
    db.insert("t", {"k": None, "v": "null"})
    with db.begin() as txn:
        for ref in db.query("t", Eq("k", 7)).refs()[:3]:
            txn.update("t", ref, {"v": "updated"})
    db.crash()
    return Database(path, cfg)


def _scan(db, keep):
    return sorted(
        (r["k"] if r["k"] is not None else -1, r["v"])
        for r in db.query("t").rows()
        if keep(r["k"])
    )


def _rows(result):
    return sorted(
        (r["k"] if r["k"] is not None else -1, r["v"]) for r in result.rows()
    )


class TestRestartCatchUp:
    @pytest.mark.parametrize(
        "predicate, keep",
        [
            (Eq("k", 7), lambda k: k == 7),
            (Between("k", 5, 12), lambda k: k is not None and 5 <= k <= 12),
            (IsNull("k"), lambda k: k is None),
        ],
        ids=["equal", "range", "null"],
    )
    def test_first_probe_equals_an_unindexed_scan(self, tmp_path, predicate, keep):
        db = _crashed_with_unindexed_delta(str(tmp_path / "db"))
        try:
            index = db._indexes[db.table("t").table_id]["k"]
            assert index._delta_synced_rows == 0
            first = _rows(db.query("t", predicate))
            assert index._delta_synced_rows == db.table("t").delta.row_count
            assert first == _scan(db, keep)
            assert first, "the probe must find something"
        finally:
            db.close()

    def test_first_probe_candidates_are_every_matching_delta_row(self, tmp_path):
        db = _crashed_with_unindexed_delta(str(tmp_path / "db"))
        try:
            table = db.table("t")
            index = db._indexes[table.table_id]["k"]
            delta = table.delta
            codes = delta.column_codes(0)
            probes = (
                (index.probe_equal(table, 7), delta.dictionaries[0].code_of(7)),
                (index.probe_null(table), NULL_CODE),
            )
            for refs, code in probes:
                got = [row for is_delta, row in map(unpack_rowref, refs) if is_delta]
                assert got == np.flatnonzero(codes == code).tolist()
        finally:
            db.close()

    def test_probes_racing_the_first_catch_up_all_see_every_row(self, tmp_path):
        db = _crashed_with_unindexed_delta(str(tmp_path / "db"), n=3000)
        try:
            want = _scan(db, lambda k: k == 7)
            results, errors = [], []

            def probe():
                try:
                    results.append(_rows(db.query("t", Eq("k", 7))))
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=probe) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(previous)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert results == [want] * 6
        finally:
            db.close()

    def test_probes_racing_the_first_batch_into_an_empty_table(self, tmp_path):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        try:
            db.create_table("t", SCHEMA)
            db.create_index("t", "k")
            table = db.table("t")
            index = db._indexes[table.table_id]["k"]
            done, wrong = threading.Event(), []

            def probe():
                while not done.is_set():
                    for value in (3, 11):
                        try:
                            refs = index.probe_equal(table, value)
                        except Exception as exc:
                            wrong.append((value, repr(exc)))
                            continue
                        for ref in refs:
                            if table.get_row(ref)[0] != value:
                                wrong.append((value, ref))

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                reader = threading.Thread(target=probe)
                reader.start()
                try:
                    db.insert_many("t", [{"k": i % 20, "v": "x"} for i in range(2000)])
                finally:
                    done.set()
                    reader.join(timeout=10)
            finally:
                sys.setswitchinterval(previous)
            assert not reader.is_alive()
            assert wrong == []
            assert index.delta_index._state[0].size == 2000
            assert db.query("t", Eq("k", 3)).count == 100
        finally:
            db.close()


class TestCreateIndexBesideAWriter:
    """``create_index`` while rows are being written: the new index's
    delta half starts empty and catches up on first use, and the index
    joins a new map rather than the one a writer is iterating."""

    def test_a_row_published_while_the_index_is_built_is_found(
        self, tmp_path, monkeypatch
    ):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        try:
            db.create_table("t", SCHEMA)
            db.insert_many("t", [{"k": i, "v": "old"} for i in range(50)])
            late = [{"k": 1000, "v": "late"}, {"k": 1001, "v": "later"}]

            def publish_one():
                if late:
                    db.insert("t", late.pop(0))

            # A writer publishes right after the build reads the delta,
            # and again once the index exists but is not yet registered.
            column_codes = DeltaPartition.column_codes
            from_parts = TableIndex.from_parts.__func__

            def snapshot_then_publish(self, col):
                codes = column_codes(self, col)
                publish_one()
                return codes

            def build_then_publish(cls, *args, **kwargs):
                index = from_parts(cls, *args, **kwargs)
                publish_one()
                return index

            monkeypatch.setattr(DeltaPartition, "column_codes", snapshot_then_publish)
            monkeypatch.setattr(
                TableIndex, "from_parts", classmethod(build_then_publish)
            )
            db.create_index("t", "k")
            monkeypatch.undo()
            assert db.query("t", Eq("k", 1000)).count == 1
            for key in (7, 1000, 1001):
                assert _rows(db.query("t", Eq("k", key))) == _scan(
                    db, lambda k, key=key: k == key
                )
        finally:
            db.close()

    def test_an_index_created_during_a_writers_upkeep(self, tmp_path, monkeypatch):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        try:
            db.create_table("t", SCHEMA)
            db.create_index("t", "k")
            db.insert("t", {"k": 1, "v": "a"})
            on_insert = TableIndex.on_insert

            def create_then_maintain(self, code, position):
                if "v" not in db.indexes_on("t"):
                    db.create_index("t", "v")
                on_insert(self, code, position)

            monkeypatch.setattr(TableIndex, "on_insert", create_then_maintain)
            db.insert("t", {"k": 2, "v": "b"})
            monkeypatch.undo()
            assert set(db.indexes_on("t")) == {"k", "v"}
            assert _rows(db.query("t", Eq("v", "b"))) == [(2, "b")]
            assert _rows(db.query("t", Eq("k", 2))) == [(2, "b")]
        finally:
            db.close()

    def test_writers_racing_create_index(self, tmp_path):
        """Stress form: two writers insert while two indexes are made;
        no insert fails and each index finds every row a scan does."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(3):
                db = Database(
                    str(tmp_path / f"db{attempt}"), make_config(DurabilityMode.NVM)
                )
                try:
                    db.create_table("t", SCHEMA)
                    # Big enough that the first catch-up overlaps the
                    # other writer and the second index's creation.
                    db.insert_many(
                        "t", [{"k": i, "v": f"s{i % 7}"} for i in range(20_000)]
                    )
                    start, errors = threading.Barrier(3), []

                    def write(base):
                        start.wait()
                        try:
                            for i in range(base, base + 300):
                                db.insert("t", {"k": i, "v": f"s{i % 7}"})
                        except Exception as exc:  # surfaced below
                            errors.append(exc)

                    writers = [
                        threading.Thread(target=write, args=(base,))
                        for base in (10_000, 20_000)
                    ]
                    for t in writers:
                        t.start()
                    start.wait()
                    db.create_index("t", "k")
                    db.create_index("t", "v")
                    for t in writers:
                        t.join(timeout=60)
                    assert not any(t.is_alive() for t in writers)
                    assert errors == []
                    assert db.query("t", Between("k", 0, 10**6)).count == 20_600
                    for j in range(7):
                        value = f"s{j}"
                        assert db.query("t", Eq("v", value)).count == len(
                            _scan(db, lambda k, j=j: k % 7 == j)
                        )
                finally:
                    db.close()
        finally:
            sys.setswitchinterval(previous)


class TestCatchUpMetrics:
    @pytest.fixture(autouse=True)
    def registry(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            yield registry
        finally:
            set_registry(previous)

    @staticmethod
    def _observed(registry):
        snap = registry.snapshot()
        return (
            snap.get("index_catchup_rows_total", 0),
            snap.get("index_catchup_seconds", {"count": 0})["count"],
        )

    def test_one_observation_for_the_first_probe_after_a_reopen(
        self, tmp_path, registry
    ):
        db = _crashed_with_unindexed_delta(str(tmp_path / "db"))
        try:
            assert self._observed(registry) == (0, 0)
            db.query("t", Eq("k", 7)).count
            rows = db.table("t").delta.row_count
            assert self._observed(registry) == (rows, 1)
            db.query("t", Eq("k", 8)).count
            assert self._observed(registry) == (rows, 1)
        finally:
            db.close()

    def test_none_across_steady_state_inserts(self, tmp_path, registry):
        db = Database(str(tmp_path / "db"), make_config(DurabilityMode.NVM))
        try:
            db.create_table("t", SCHEMA)
            db.create_index("t", "k")
            db.insert_many("t", [{"k": i, "v": "a"} for i in range(50)])
            for i in range(50, 80):
                db.insert("t", {"k": i, "v": "b"})
                db.query("t", Eq("k", i)).count
            db.insert_many("t", [{"k": i, "v": "c"} for i in range(80, 90)])
            assert db.query("t", Eq("k", 85)).count == 1
            assert self._observed(registry) == (0, 0)
        finally:
            db.close()
