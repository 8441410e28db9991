"""The three in-process workloads: ``oltp_nvm``, ``oltp_log``,
``analytics_nvm``.

One harness (:class:`EngineWorkload`) owns the protocol every run
follows — repeated set-up, warm-up, timed operations, restart cycles,
oracle — and the two subclasses supply inputs, schema and the operation
loop. Inputs are generated from the seed before anything is timed; the
engine only ever sees the generated rows and predicates.

``repro.aggregate`` / ``repro.hash_join`` are called through the package
attribute, looked up at call time: ``perf.trace`` swaps those attributes
for its wrappers while tracing is on.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import threading
from array import array
from time import perf_counter, process_time
from typing import Optional

import numpy as np
import repro
from repro import (
    Between,
    Database,
    DataType,
    DurabilityMode,
    EngineConfig,
    Eq,
    get_registry,
)
from repro.nvm.pool import PMemMode

from perf import calibrate, layers, trace
from perf.common import (
    Failures,
    Sizes,
    dir_bytes,
    end_to_end_result,
    latency_summary,
    peak_rss_mib,
    plain,
)
from perf.oracle import (
    ITEM_ROW_BYTES,
    AccountsModel,
    EngineReader,
    SalesModel,
    check_restart,
    same_number,
    same_rows,
)

#: Ids of rows left uncommitted at each crash / inserted by each probe;
#: far above anything the op streams generate.
INFLIGHT_BASE = 10**12
PROBE_BASE = 2 * 10**12
INFLIGHT_TXNS = 8
INFLIGHT_ROWS_PER_TXN = 10
INFLIGHT_ROWS = INFLIGHT_TXNS * INFLIGHT_ROWS_PER_TXN

#: Operation ids of spans recorded outside the timed op stream.
RESTART_OP = -1000  # cycle c records under RESTART_OP - c
MERGE_OP = -100_000  # background merge k records under MERGE_OP - k

#: How many operations' spans the trace file keeps in full.
TRACE_FILE_OPS = 200


class EngineWorkload:
    """Protocol shared by the in-process workloads."""

    name: str
    table: str  # the table the first-answer probe and the oracle use
    value: str  # its summed column
    threads = 1
    block_ops: int  # operations between two host-speed samples
    #: Whether reopen + first answers is interpreter-bound work that
    #: follows the calibration kernel's speed (index rebuild loops, log
    #: replay) or memory-bound work that does not (a first scan over
    #: freshly mapped pages). Measured, per workload: see perf/README.md.
    restart_follows_cpu: bool

    def __init__(
        self,
        mode: str,
        sizes: Sizes,
        seed: int,
        workdir: str,
        *,
        strict_pmem: bool = False,
        tracer: Optional[trace.Tracer] = None,
    ):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        # EngineConfig defaults: LOG commits synchronously (group size 1,
        # real fsync, no modelled delay); NVM is PMemMode.FAST with no
        # latency model. STRICT is the smoke test's choice, so that the
        # simulated power loss really discards unflushed lines.
        self.config = EngineConfig(
            mode=DurabilityMode(mode),
            pmem_mode=PMemMode.STRICT if strict_pmem else PMemMode.FAST,
        )
        self.failures = Failures()
        self.total_ops = sizes.warmup + sizes.ops + sizes.reference
        self.latency = array("d", bytes(8 * self.total_ops))  # wall seconds
        self.cpu = array("d", bytes(8 * self.total_ops))  # process CPU seconds
        self.started = array("d", bytes(8 * self.total_ops))
        self.meter = calibrate.SpeedMeter()
        self.kinds: list[str] = []  # op type per stream position
        self.merge_windows: list[tuple[float, float]] = []
        self.model = None

    # -- hooks -----------------------------------------------------------

    def generate(self) -> None:
        """Build every input and the oracle's model from ``self.seed``."""
        raise NotImplementedError

    def setup(self, path: str):
        """Open an engine at ``path``, create the schema, preload, merge."""
        raise NotImplementedError

    def execute(self, db, first: int, last: int) -> None:
        """Run stream positions ``[first, last)``, filling ``latency``."""
        raise NotImplementedError

    def is_write(self, kind: str) -> bool:
        raise NotImplementedError

    def new_row(self, key: int) -> dict:
        """A row for an in-flight or probe insert."""
        raise NotImplementedError

    def probe_key(self, cycle: int) -> int:
        """A live key for the first-answer probe's point read."""
        raise NotImplementedError

    def user_bytes_written(self, first: int, last: int) -> int:
        raise NotImplementedError

    def finish_background(self) -> None:
        """Join background work started by ``execute``."""

    # -- protocol --------------------------------------------------------

    def run(self) -> dict:
        sizes, tracer, meter = self.sizes, self.tracer, self.meter
        self.generate()
        # The pre-generated inputs are a large heap of their own; keep
        # the collector from walking them in the middle of timed work.
        gc.collect()
        gc.freeze()

        setup_s = []
        db = None
        for k in range(sizes.setups):
            if db is not None:
                db.close()
                shutil.rmtree(self.path)
            self.path = os.path.join(self.workdir, f"engine-{k}")
            t0 = perf_counter()
            db = self.setup(self.path)
            setup_s.append(perf_counter() - t0)

        first = sizes.warmup
        last = first + sizes.ops
        self.execute(db, 0, first)
        self.finish_background()

        registry = get_registry()
        if tracer is not None:
            tracer.install()
        before = layers.flatten_counts(db.stats(), registry.snapshot())
        self.execute(db, first, last)
        self.finish_background()
        after_stats = db.stats()
        counts = layers.delta(
            layers.flatten_counts(after_stats, registry.snapshot()), before
        )

        if tracer is not None:
            # Overhead check: the next ``reference`` ops run untraced and
            # are compared with the last ``reference`` traced ones.
            tracer.uninstall()
            self.execute(db, last, self.total_ops)
            self.finish_background()
            tracer.install()

        durable = self.durable_bytes(db)
        space_amp = durable / self.model.user_bytes

        cycles, kernel_s = [], [calibrate.kernel()]
        for cycle in range(sizes.cycles):
            db, detail = self.restart_cycle(db, cycle)
            cycles.append(detail)
            kernel_s += [calibrate.kernel(), calibrate.kernel()]
        db.close()
        # One speed factor for the whole restart phase (never one per
        # cycle: a single kernel sample is too noisy to scale by).
        restart_factor = (
            calibrate.REFERENCE_S / statistics.median(kernel_s)
            if self.restart_follows_cpu
            else 1.0
        )
        if tracer is not None:
            tracer.uninstall()

        stream = meter.stream(first, last, self.latency, self.cpu)
        kinds = np.asarray(self.kinds[first:last])
        is_write = np.asarray([self.is_write(k) for k in self.kinds[first:last]])
        result = end_to_end_result(
            stream=stream,
            ops=sizes.ops,
            kinds=kinds,
            is_write=is_write,
            setup_s=setup_s,
            restart_s=[c["restart_s"] for c in cycles],
            restart_factor=restart_factor,
            space_amp=space_amp,
            peak_rss_mb=peak_rss_mib(),
        )
        result["protocol"] = {
            "engine_config": plain(self.config),
            "loop": "closed",
            "client_threads": self.threads,
            "sizes": plain(sizes),
            "timed_wall_s": stream["wall_s"],
            "block_ops": self.block_ops,
            "durable_bytes": durable,
            "user_bytes": self.model.user_bytes,
            "live_rows": self.model.count,
        }
        if tracer is not None:
            result["per_layer"], result["trace"] = self.trace_report(
                counts=counts,
                after_stats=after_stats,
                durable=durable,
                lat=stream["raw_latency"],
                kinds=kinds,
                is_write=is_write,
                cycles=cycles,
                host_speed=stream["host_speed"],
            )
        return result

    def durable_bytes(self, db) -> int:
        """Bytes the engine keeps to survive a restart.

        NVM: the pool's allocation counter — cumulative since the pool
        was created by this process's last set-up, hence read before the
        first reopen resets it. LOG: every file under the engine's
        directory (log + checkpoint chain + metadata).
        """
        nvm = db.stats().get("nvm")
        if nvm is not None:
            return int(nvm["allocated_bytes"])
        return dir_bytes(self.path)

    # -- restart ---------------------------------------------------------

    def restart_cycle(self, db, cycle: int):
        """Crash with work in flight, reopen, time the first answers."""
        failures, model, table = self.failures, self.model, self.table
        lo = INFLIGHT_BASE + cycle * INFLIGHT_ROWS
        open_txns = []
        for j in range(INFLIGHT_TXNS):
            txn = db.begin()
            for q in range(INFLIGHT_ROWS_PER_TXN):
                txn.insert(table, self.new_row(lo + j * INFLIGHT_ROWS_PER_TXN + q))
            open_txns.append(txn)
        key = self.probe_key(cycle)
        row = self.new_row(PROBE_BASE + cycle)
        predicate = Eq("id", key)
        db.crash()
        del open_txns

        def first_answers():
            t0 = perf_counter()
            db = Database(self.path, self.config)
            t_open = perf_counter()
            got = db.query(table, predicate).rows()
            t_query = perf_counter()
            count = repro.aggregate(db.query(table), "count")
            t_count = perf_counter()
            db.insert(table, row)
            return db, got, count, (t0, t_open, t_query, t_count, perf_counter())

        if self.tracer is not None:
            self.tracer.set_op(RESTART_OP - cycle)
        # A failed reopen raises: the run ends without a result.
        db, got, count, (t0, t_open, t_query, t_count, t1) = first_answers()
        if self.tracer is not None:
            self.tracer.set_op(trace.NO_OP)

        failures.check(
            same_rows(got, self.expected_rows(key)),
            f"first point read after restart {cycle}: {got}",
        )
        failures.check(
            count == model.count,
            f"first count after restart {cycle}: {count}, acked {model.count}",
        )
        model.insert_row(row)
        failures.check(
            same_rows(db.query(table, Eq("id", row["id"])).rows(), [row]),
            f"first committed insert after restart {cycle} not readable",
        )
        if cycle == 0:
            check_restart(
                EngineReader(db, table, self.value),
                model,
                (lo, lo + INFLIGHT_ROWS - 1),
                failures,
                random.Random(self.seed),
            )
        detail = layers.recovery_sample(db.last_recovery.as_dict())
        detail.update(
            restart_s=t1 - t0,
            reopen_s=t_open - t0,
            first_query_s=t_query - t_open,
            first_count_s=t_count - t_query,
            first_commit_s=t1 - t_count,
        )
        return db, detail

    def expected_rows(self, key: int) -> list[dict]:
        raise NotImplementedError

    # -- tracing ---------------------------------------------------------

    def trace_report(
        self, *, counts, after_stats, durable, lat, kinds, is_write, cycles, host_speed
    ):
        """Per-layer metrics and the trace-file payload of a traced run.

        Per-layer times are raw wall-clock seconds (``lat`` too); divide
        by ``obs.host_speed`` to compare runs taken at different times.
        """
        sizes = self.sizes
        spans = self.tracer.collect()
        selfs = trace.self_times(spans.start, spans.end, spans.parent)
        first = sizes.warmup
        timed = (spans.op >= first) & (spans.op < first + sizes.ops)
        merges = spans.op <= MERGE_OP
        timed_summary = trace.summarize(spans, timed | merges, selfs)
        for cycle, detail in enumerate(cycles):
            in_cycle = spans.op == RESTART_OP - cycle
            per_name = trace.summarize(spans, in_cycle, selfs)
            detail["ensure_current_s"] = per_name.get(
                "index.ensure_current", {}
            ).get("self_s", 0.0)

        # Coverage: the foreground ops' spans against their latencies.
        covered = float(selfs[timed].sum()) / float(lat.sum())
        # Overhead: the last ``reference`` traced ops against the
        # ``reference`` untraced ops that followed them. Both rates come
        # from summed latencies, which leave out the loop's bookkeeping.
        tail = sizes.reference
        traced_rate = tail / float(lat[-tail:].sum())
        untraced = np.frombuffer(self.latency, dtype=np.float64)[first + sizes.ops :]
        reference_rate = tail / float(untraced.sum())
        overhead = (reference_rate - traced_rate) / reference_rate

        op_p50 = {
            kind: float(np.median(lat[kinds == kind])) * 1e3
            for kind in set(kinds.tolist())
        }
        per_layer = layers.layer_metrics(
            timed_spans=timed_summary,
            counts=counts,
            ends=layers.table_ends(after_stats),
            allocated_bytes=float(durable if "nvm" in after_stats else 0),
            ops=sizes.ops,
            user_bytes_written=self.user_bytes_written(first, first + sizes.ops),
            op_p50_ms=op_p50,
            tail_ms={
                "write": latency_summary(lat[is_write])["tail_ms"],
                "read": latency_summary(lat[~is_write])["tail_ms"],
            },
            cycles=cycles,
            merge_stall_max_ms=self.merge_stall_max_ms(first, first + sizes.ops),
            trace_overhead_share=overhead,
            covered_share=covered,
            host_speed=host_speed,
        )
        keep = timed & (spans.op < first + TRACE_FILE_OPS)
        payload = {
            "workload": self.name,
            "what": (
                "summary = per span name over the timed ops (+ background "
                "merges); spans = every span of the first "
                f"{TRACE_FILE_OPS} timed ops, restart cycle 0 and merge 0"
            ),
            "covered_share": covered,
            "untraced_share": 1.0 - covered,
            "summary": timed_summary,
            "restart_summary": trace.summarize(
                spans, (spans.op <= RESTART_OP) & (spans.op > MERGE_OP), selfs
            ),
            "spans": trace.spans_as_records(
                spans,
                np.flatnonzero(
                    keep | (spans.op == RESTART_OP) | (spans.op == MERGE_OP)
                ),
                selfs,
            ),
        }
        return per_layer, payload

    def merge_stall_max_ms(self, first: int, last: int) -> float:
        """Slowest foreground op that overlapped a background merge."""
        if not self.merge_windows:
            return 0.0
        start = np.frombuffer(self.started, dtype=np.float64)[first:last]
        end = start + np.frombuffer(self.latency, dtype=np.float64)[first:last]
        worst = 0.0
        for m0, m1 in self.merge_windows:
            hit = (start < m1) & (end > m0)
            if hit.any():
                worst = max(worst, float((end - start)[hit].max()))
        return worst * 1e3


# ----------------------------------------------------------------------
# oltp_nvm / oltp_log
# ----------------------------------------------------------------------

GROUPS = 97


class OltpWorkload(EngineWorkload):
    """Autocommit point operations on ``accounts(id indexed, grp, qty)``.

    40% insert, 20% update (indexed lookup + ``txn.update`` in one
    transaction), 5% delete, 35% indexed point read ``.rows()``; keys
    uniform over the ids live at that point of the stream.
    """

    table = "accounts"
    value = "qty"
    block_ops = 250
    restart_follows_cpu = True

    def __init__(self, mode: str, *args, **kwargs):
        super().__init__(mode, *args, **kwargs)
        self.name = f"oltp_{mode}"

    def generate(self) -> None:
        rng = random.Random(self.seed)
        n = self.sizes.preload
        self.preload_rows = [
            {"id": i, "grp": f"g{rng.randrange(GROUPS)}", "qty": rng.randrange(1000)}
            for i in range(n)
        ]
        live = list(range(n))
        next_id = n
        kinds, keys, rows, qtys = [], [], [], []
        for _ in range(self.total_ops):
            r = rng.random()
            if r < 0.40:
                kinds.append("insert")
                keys.append(next_id)
                rows.append(
                    {
                        "id": next_id,
                        "grp": f"g{rng.randrange(GROUPS)}",
                        "qty": rng.randrange(1000),
                    }
                )
                qtys.append(0)
                live.append(next_id)
                next_id += 1
                continue
            slot = rng.randrange(len(live))
            keys.append(live[slot])
            rows.append(None)
            if r < 0.60:
                kinds.append("update")
                qtys.append(rng.randrange(1000))
            elif r < 0.65:
                kinds.append("delete")
                qtys.append(0)
                live[slot] = live[-1]
                live.pop()
            else:
                kinds.append("point_read")
                qtys.append(0)
        self.kinds, self.keys, self.rows, self.qtys = kinds, keys, rows, qtys
        self.model = AccountsModel()

    def setup(self, path: str):
        db = Database(path, self.config)
        db.create_table(
            "accounts",
            {"id": DataType.INT64, "grp": DataType.STRING, "qty": DataType.INT64},
        )
        db.create_index("accounts", "id")
        rows = self.preload_rows
        for lo in range(0, len(rows), 10_000):
            db.insert_many("accounts", rows[lo : lo + 10_000])
        db.merge("accounts", online=False)
        if self.config.mode is DurabilityMode.LOG:
            db.checkpoint()
        model = self.model = AccountsModel()
        for row in rows:
            model.live[row["id"]] = (row["grp"], row["qty"])
        return db

    def execute(self, db, first: int, last: int) -> None:
        kinds, keys, rows, qtys = self.kinds, self.keys, self.rows, self.qtys
        latency, cpu, started = self.latency, self.cpu, self.started
        model, failures = self.model, self.failures
        mark, block = self.meter.mark, self.block_ops
        set_op = self.tracer.set_op if self.tracer is not None else None
        for i in range(first, last):
            kind, key = kinds[i], keys[i]
            if (i - first) % block == 0:
                mark(i)
            if set_op is not None:
                set_op(i)
            failures.attempted += 1
            c0 = process_time()
            t0 = perf_counter()
            try:
                if kind == "insert":
                    db.insert("accounts", rows[i])
                elif kind == "point_read":
                    got = db.query("accounts", Eq("id", key)).rows()
                elif kind == "update":
                    with db.begin() as txn:
                        ref = txn.query("accounts", Eq("id", key)).refs()[0]
                        txn.update("accounts", ref, {"qty": qtys[i]})
                else:
                    with db.begin() as txn:
                        ref = txn.query("accounts", Eq("id", key)).refs()[0]
                        txn.delete("accounts", ref)
            except Exception as exc:
                failures.fail(f"op {i} {kind}({key}): {type(exc).__name__}: {exc}")
                continue
            finally:
                latency[i] = perf_counter() - t0
                cpu[i] = process_time() - c0
                started[i] = t0
            if kind == "insert":
                row = rows[i]
                model.insert(key, row["grp"], row["qty"])
            elif kind == "point_read":
                if got != model.expected(key):
                    failures.fail(f"op {i} read({key}): {got}")
            elif kind == "update":
                model.update(key, qtys[i])
            else:
                model.delete(key)
        mark(last)
        if set_op is not None:
            set_op(trace.NO_OP)

    def is_write(self, kind: str) -> bool:
        return kind != "point_read"

    def new_row(self, key: int) -> dict:
        return {"id": key, "grp": f"g{key % GROUPS}", "qty": key % 1000}

    def probe_key(self, cycle: int) -> int:
        # Deterministic, and always live: preloaded keys are only ever
        # deleted by the op stream, so walk until one survives.
        key = (cycle * 7919) % self.sizes.preload
        while key not in self.model.live:
            key = (key + 1) % self.sizes.preload
        return key

    def expected_rows(self, key: int) -> list[dict]:
        return self.model.expected(key)

    def user_bytes_written(self, first: int, last: int) -> int:
        written = sum(1 for k in self.kinds[first:last] if k in ("insert", "update"))
        return written * AccountsModel.row_bytes


# ----------------------------------------------------------------------
# analytics_nvm
# ----------------------------------------------------------------------

ITEMS = 1000
CATEGORIES = 20
REGIONS = 50
DAYS = 365
BATCH_ROWS = 512
PRELOAD_BATCH = 20_000
#: The timed phase starts this many background merges, evenly spaced ...
MERGES_PER_RUN = 8
#: ... but never closer than this many batches (8k rows): below that a
#: delta is not worth merging, and at smoke scale back-to-back merges
#: mostly exercise engine defect 1 of perf/README.md.
MIN_BATCHES_BETWEEN_MERGES = 16
READ_KINDS = ("aggregate", "join", "range_scan", "count")


class AnalyticsWorkload(EngineWorkload):
    """Batch appends beside scans, with online merges in the background.

    Even stream positions ``insert_many`` 512 rows into ``sales``; odd
    positions rotate through a filtered grouped sum, a hash join against
    ``items``, a selective range scan and a full count. No secondary
    index. Every ``merge_every``-th batch starts ``db.merge("sales")``
    on a second thread (after joining the previous one).
    """

    name = "analytics_nvm"
    table = "sales"
    value = "amount"
    threads = 2
    block_ops = 10
    restart_follows_cpu = False

    def generate(self) -> None:
        sizes = self.sizes
        rng = np.random.default_rng(self.seed)
        batches = (self.total_ops + 1) // 2
        n = sizes.preload + batches * BATCH_ROWS
        item_id = rng.integers(0, ITEMS, n)
        region = rng.integers(0, REGIONS, n)
        amount = np.round(rng.uniform(1.0, 500.0, n), 2)
        day = rng.integers(0, DAYS, n)
        self.model = SalesModel(
            item_id, region, amount, day, extra_user_bytes=ITEMS * ITEM_ROW_BYTES
        )
        item_l, region_l = item_id.tolist(), region.tolist()
        amount_l, day_l = amount.tolist(), day.tolist()
        self.sales_rows = [
            {
                "id": i,
                "item_id": item_l[i],
                "region": f"r{region_l[i]}",
                "amount": amount_l[i],
                "day": day_l[i],
            }
            for i in range(n)
        ]
        self.item_rows = [
            {"id": i, "category": f"c{i % CATEGORIES}", "price": float(i % 50) + 0.5}
            for i in range(ITEMS)
        ]
        # Read parameters, one per odd stream position.
        self.params = rng.integers(0, 2**31, self.total_ops).tolist()
        self.kinds = [
            "insert_many" if i % 2 == 0 else READ_KINDS[(i // 2) % len(READ_KINDS)]
            for i in range(self.total_ops)
        ]
        timed_batches = max(1, sizes.ops // 2)
        self.merge_every = max(
            MIN_BATCHES_BETWEEN_MERGES, timed_batches // MERGES_PER_RUN
        )
        self.merge_thread: Optional[threading.Thread] = None
        self.merges_started = 0
        self.merge_errors: list[str] = []

    def setup(self, path: str):
        db = Database(path, self.config)
        db.create_table(
            "items",
            {
                "id": DataType.INT64,
                "category": DataType.STRING,
                "price": DataType.FLOAT64,
            },
        )
        db.create_table(
            "sales",
            {
                "id": DataType.INT64,
                "item_id": DataType.INT64,
                "region": DataType.STRING,
                "amount": DataType.FLOAT64,
                "day": DataType.INT64,
            },
        )
        db.insert_many("items", self.item_rows)
        n = self.sizes.preload
        for lo in range(0, n, PRELOAD_BATCH):
            db.insert_many("sales", self.sales_rows[lo : min(n, lo + PRELOAD_BATCH)])
        db.merge("items", online=False)
        db.merge("sales", online=False)
        self.model.acked = n
        self.model.extra = []
        return db

    # -- background merge ------------------------------------------------

    def _merge(self, db, number: int) -> None:
        if self.tracer is not None:
            self.tracer.set_op(MERGE_OP - number)
        t0 = perf_counter()
        try:
            db.merge("sales")
        except Exception as exc:
            self.merge_errors.append(f"merge {number}: {type(exc).__name__}: {exc}")
        self.merge_windows.append((t0, perf_counter()))

    def _start_merge(self, db) -> None:
        self.finish_background()
        self.merge_thread = threading.Thread(
            target=self._merge, args=(db, self.merges_started), name="perf-merge"
        )
        self.merges_started += 1
        self.merge_thread.start()

    def finish_background(self) -> None:
        if self.merge_thread is not None:
            self.merge_thread.join(timeout=120)
            if self.merge_thread.is_alive():
                self.merge_errors.append("background merge did not finish in 120 s")
            self.merge_thread = None
        for error in self.merge_errors:
            self.failures.attempted += 1
            self.failures.fail(error)
        self.merge_errors = []

    # -- operations ------------------------------------------------------

    def execute(self, db, first: int, last: int) -> None:
        kinds, params, rows = self.kinds, self.params, self.sales_rows
        latency, cpu, started = self.latency, self.cpu, self.started
        model, failures = self.model, self.failures
        mark, block = self.meter.mark, self.block_ops
        set_op = self.tracer.set_op if self.tracer is not None else None
        warm = self.sizes.warmup
        checks = []  # (position, kind, args, acked rows then, digest)
        for i in range(first, last):
            kind, p = kinds[i], params[i]
            acked = model.acked
            if kind == "insert_many":
                batch = rows[acked : acked + BATCH_ROWS]
            elif kind == "aggregate":
                d0 = p % (DAYS - 30)
                predicate = Between("day", d0, d0 + 29)
            elif kind == "join":
                predicate = Eq("day", p % DAYS)
            elif kind == "range_scan":
                lo = p % (acked - 200)
                predicate = Between("id", lo, lo + 199)
            if (i - first) % block == 0:
                mark(i)
            if set_op is not None:
                set_op(i)
            failures.attempted += 1
            c0 = process_time()
            t0 = perf_counter()
            try:
                if kind == "insert_many":
                    db.insert_many("sales", batch)
                elif kind == "aggregate":
                    got = repro.aggregate(
                        db.query("sales", predicate), "sum", "amount", group_by="region"
                    )
                elif kind == "join":
                    got = repro.hash_join(
                        db.query("sales", predicate), db.query("items"), "item_id", "id"
                    )
                elif kind == "range_scan":
                    got = db.query("sales", predicate).rows()
                else:
                    got = repro.aggregate(db.query("sales"), "count")
            except Exception as exc:
                failures.fail(f"op {i} {kind}: {type(exc).__name__}: {exc}")
                continue
            finally:
                latency[i] = perf_counter() - t0
                cpu[i] = process_time() - c0
                started[i] = t0
            if kind == "insert_many":
                model.acked = acked + BATCH_ROWS
                batch_no = (i - warm) // 2
                if i >= warm and (batch_no + 1) % self.merge_every == 0:
                    self._start_merge(db)
            elif kind == "aggregate":
                checks.append((i, kind, d0, acked, got))
            elif kind == "join":
                digest = (len(got), sum(r["amount"] for r in got))
                checks.append((i, kind, p % DAYS, acked, digest))
            elif kind == "range_scan":
                want = model.rows(lo, lo + 200)
                if not same_rows(sorted(got, key=lambda r: r["id"]), want):
                    failures.fail(f"op {i} range_scan({lo}): {len(got)} rows")
            elif got != acked:
                failures.fail(f"op {i} count: {got}, acked {acked}")
        mark(last)
        if set_op is not None:
            set_op(trace.NO_OP)
        self._verify_reads(checks)

    def _verify_reads(self, checks) -> None:
        """Check aggregates and joins against the model, after the clock
        stopped (each needs a pass over the model's columns)."""
        model, failures = self.model, self.failures
        for i, kind, arg, acked, got in checks:
            day = model.day[:acked]
            amount = model.amount[:acked]
            if kind == "aggregate":
                hit = (day >= arg) & (day <= arg + 29)
                sums = np.bincount(
                    model.region[:acked][hit], weights=amount[hit], minlength=REGIONS
                )
                present = np.bincount(model.region[:acked][hit], minlength=REGIONS)
                want = {f"r{r}": float(sums[r]) for r in range(REGIONS) if present[r]}
                ok = got.keys() == want.keys() and all(
                    same_number(got[k], v) for k, v in want.items()
                )
            else:
                hit = day == arg
                # Every item id exists, so the join keeps every sale.
                ok = got[0] == int(hit.sum()) and same_number(
                    got[1], float(amount[hit].sum())
                )
            if not ok:
                failures.fail(f"op {i} {kind}({arg}) disagrees with the model")

    def is_write(self, kind: str) -> bool:
        return kind == "insert_many"

    def new_row(self, key: int) -> dict:
        return {
            "id": key,
            "item_id": key % ITEMS,
            "region": f"r{key % REGIONS}",
            "amount": float(key % 499) + 0.25,
            "day": key % DAYS,
        }

    def probe_key(self, cycle: int) -> int:
        return (cycle * 7919) % self.model.acked

    def expected_rows(self, key: int) -> list[dict]:
        return [self.model.row(key)]

    def user_bytes_written(self, first: int, last: int) -> int:
        batches = sum(1 for k in self.kinds[first:last] if k == "insert_many")
        return batches * BATCH_ROWS * SalesModel.row_bytes
