"""Hash-sharded engine: N independent shards, recovered in parallel.

Following *Fast Failure Recovery for Main-Memory DBMSs on Multicores*
(Wu et al., VLDB 2017), the durable state is partitioned so that both
the write path and recovery parallelize across cores. A
:class:`ShardedEngine` runs one full single-shard
:class:`~repro.core.database.Database` per partition — each with its own
durability driver (pmem pool or WAL + checkpoint files) under
``path/shard-NNNN/`` — and hash-routes rows by their table's partition
key (the first schema column unless overridden at ``create_table``).

What this buys per durability mode:

* **LOG** — recovery replays/loads each shard's O(data / shards) slice
  concurrently, so restart time drops with the shard count (until cores
  or the interpreter lock run out);
* **NVM** — recovery was already O(in-flight transactions) per shard;
  sharding keeps it flat while the *contrast* with log replay sharpens.

Cross-shard semantics are deliberately modest: ``insert_many`` runs one
transaction per touched shard, each with its shard's own commit id.
Per-shard batches commit atomically but the fan-out itself is not a
distributed transaction (a crash mid-fan-out may land some shards'
sub-batches and not others — each shard individually stays consistent
and no shard ever loses a committed batch), and no reader takes a
cross-shard snapshot. Interactive multi-statement transactions are per
core: ``engine.shard_for(table, key).begin()``.

This module owns routing and fan-out only: every data operation is the
single-shard core's, and both satisfy :class:`~repro.core.Engine`. The
shard count is fixed when the directory is first created and recorded
in ``shards.json``; :func:`~repro.core.open_engine` reads it back, and
never builds a router for one shard.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import accumulate
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.core.config import EngineConfig
from repro.core.database import Database, SchemaLike, _coerce_schema, each_outcome
from repro.obs import get_registry
from repro.obs.trace import Span
from repro.query.predicate import Predicate
from repro.query.scan import ScanResult
from repro.recovery.report import RecoveryReport

_MANIFEST = "shards.json"

T = TypeVar("T")


#: High-water marks, not counters: the engine-level value is the
#: furthest any shard got, where every other number is a sum.
_HIGH_WATER = frozenset({"last_cid", "generation", "last_lsn"})


def shard_dir(path: str, index: int) -> str:
    """The on-disk directory of one shard."""
    return os.path.join(path, f"shard-{index:04d}")


def _manifest_path(path: str) -> str:
    return os.path.join(path, _MANIFEST)


def is_sharded(path: str) -> bool:
    """Whether ``path`` was created as a sharded engine's directory."""
    return os.path.exists(_manifest_path(path))


def fold_stats(per_shard: Sequence[dict]) -> dict:
    """One engine-level dict from same-shaped per-shard ones.

    Numbers add (``_HIGH_WATER`` keys take the max), nested dicts fold
    recursively, lists fold element-wise, and anything else (names,
    modes) is the first shard's — so the result has exactly the shape of
    one shard's dict.
    """
    first = per_shard[0]
    if isinstance(first, dict):
        out = {}
        for key in first:
            # A crash mid-DDL can leave a table on some shards only.
            values = [d[key] for d in per_shard if key in d]
            out[key] = max(values) if key in _HIGH_WATER else fold_stats(values)
        return out
    if isinstance(first, list):
        return [fold_stats(column) for column in zip(*per_shard)]
    if isinstance(first, bool) or not isinstance(first, (int, float)):
        return first
    return sum(per_shard)


def _mix_u64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (vectorized, wraps mod 2^64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def partition_of(value, nshards: int) -> int:
    """Deterministic hash partition of one key value.

    Stable across processes and restarts (unlike ``hash()``, which is
    salted for strings), so a row always routes to the shard that
    already holds it. Numeric keys hash through the same SplitMix64 mix
    as the vectorized :func:`partition_array`, so the scalar and batch
    routes can never disagree.
    """
    if value is None:
        data = b"\x00"
    elif isinstance(value, bool):
        data = b"\x01" if value else b"\x02"
    elif isinstance(value, int):
        bits = np.asarray([value], dtype=np.int64).view(np.uint64)
        return int(_mix_u64(bits)[0] % np.uint64(nshards))
    elif isinstance(value, float):
        bits = np.asarray([value], dtype=np.float64).view(np.uint64)
        return int(_mix_u64(bits)[0] % np.uint64(nshards))
    elif isinstance(value, str):
        data = value.encode("utf-8")
    else:
        raise TypeError(f"unhashable partition key type {type(value).__name__}")
    return zlib.crc32(data) % nshards


def partition_array(values: Sequence, nshards: int) -> np.ndarray:
    """Vectorized :func:`partition_of` over a whole batch of key values.

    Homogeneous int/float batches are hashed with one numpy SplitMix64
    pass; anything else (strings, NULLs, mixed) falls back to the
    scalar path per row. Returns an int64 shard-index array.
    """
    if all(type(v) is int for v in values):
        bits = np.asarray(values, dtype=np.int64).view(np.uint64)
    elif all(type(v) is float for v in values):
        bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    else:
        return np.fromiter(
            (partition_of(v, nshards) for v in values),
            dtype=np.int64,
            count=len(values),
        )
    return (_mix_u64(bits) % np.uint64(nshards)).astype(np.int64)


class ShardedResult:
    """Concatenated scan results from every shard (same lazy API)."""

    def __init__(self, results: Sequence[ScanResult]):
        self._results = list(results)

    def __len__(self) -> int:
        return sum(len(r) for r in self._results)

    @property
    def count(self) -> int:
        return len(self)

    @property
    def per_shard(self) -> list[ScanResult]:
        return self._results

    def head(self, n: int) -> "ShardedResult":
        """The first ``n`` rows, in shard order."""
        starts = accumulate((len(r) for r in self._results), initial=0)
        return ShardedResult(
            [r.head(max(n - s, 0)) for r, s in zip(self._results, starts)]
        )

    def column(self, name: str) -> list:
        out: list = []
        for result in self._results:
            out.extend(result.column(name))
        return out

    def columns(self, names: Optional[Sequence[str]] = None) -> dict:
        merged: dict = {}
        for result in self._results:
            for key, values in result.columns(names).items():
                merged.setdefault(key, []).extend(values)
        return merged

    def rows(self, names: Optional[Sequence[str]] = None) -> list[dict]:
        out: list[dict] = []
        for result in self._results:
            out.extend(result.rows(names))
        return out


class ShardedEngine:
    """Facade over N hash-partitioned :class:`Database` shards."""

    def __init__(self, path: str, config: Optional[EngineConfig] = None):
        self.path = path
        self.config = (config or EngineConfig()).validated()
        self.mode = self.config.mode
        os.makedirs(path, exist_ok=True)
        manifest = self._load_or_create_manifest()
        self.num_shards: int = manifest["shards"]
        self._partition_keys: dict[str, str] = manifest["partition_keys"]
        self._closed = False
        # See Database._close_lock: shutdown can race between a signal
        # handler and a server drain; check-and-set must be atomic.
        self._close_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.num_shards, thread_name_prefix="shard"
        )
        shard_config = replace(self.config, shards=1)
        span = Span(f"recovery:sharded:{self.mode.value}")
        with span:
            self.shards: list[Database] = self._fan_out(
                lambda i: Database(shard_dir(path, i), shard_config),
                range(self.num_shards),
                op="open",
            )
        # Graft each shard's recovery tree under the fan-out span: the
        # shards recovered on worker threads, so their roots were
        # detached until now. Children overlap in time — the tree shows
        # per-shard wall while the root shows the parallel wall.
        span.children.extend(s.last_recovery.span for s in self.shards)
        self.last_recovery = RecoveryReport(
            self.mode.value, span, shard_reports=[s.last_recovery for s in self.shards]
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def _load_or_create_manifest(self) -> dict:
        if is_sharded(self.path):
            with open(_manifest_path(self.path)) as f:
                manifest = json.load(f)
            existing = manifest["shards"]
            if self.config.shards not in (1, existing):
                raise ValueError(
                    f"shard count is fixed at creation: {self.path} has "
                    f"{existing} shards, config asks for {self.config.shards}"
                )
            manifest.setdefault("partition_keys", {})
            return manifest
        manifest = {"shards": self.config.shards, "partition_keys": {}}
        self._save_manifest(manifest)
        return manifest

    def _save_manifest(self, manifest: Optional[dict] = None) -> None:
        if manifest is None:
            manifest = {
                "shards": self.num_shards,
                "partition_keys": self._partition_keys,
            }
        path = _manifest_path(self.path)
        with open(path + ".tmp", "w") as f:
            json.dump(manifest, f)
        os.replace(path + ".tmp", path)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _fan_out(self, fn: Callable[..., T], items, op: str = "other") -> list[T]:
        """Apply ``fn`` to every item on the shard thread pool.

        Each item's pool wait and execution time feed the
        ``shard_fanout_queue_seconds`` / ``shard_fanout_exec_seconds``
        histograms (labelled by ``op``), so queueing delay — shards
        outnumbering pool workers, or a straggler shard — is visible
        separately from shard work itself.
        """
        registry = get_registry()
        queue_h = registry.histogram("shard_fanout_queue_seconds", op=op)
        exec_h = registry.histogram("shard_fanout_exec_seconds", op=op)

        def run(item: T, submitted: float) -> T:
            t0 = time.perf_counter()
            queue_h.observe(t0 - submitted)
            result = fn(item)
            exec_h.observe(time.perf_counter() - t0)
            return result

        futures = [
            self._executor.submit(run, item, time.perf_counter())
            for item in items
        ]
        return [f.result() for f in futures]

    def partition_key(self, table_name: str) -> str:
        """The column a table is hash-partitioned by."""
        try:
            return self._partition_keys[table_name]
        except KeyError:
            raise KeyError(f"no table {table_name!r}") from None

    def shard_for(self, table_name: str, key_value) -> Database:
        """The shard engine that owns ``key_value``'s rows.

        Interactive transactions are per core — begin them on the
        database this returns.
        """
        self.partition_key(table_name)  # validates the table exists
        return self.shards[partition_of(key_value, self.num_shards)]

    # ------------------------------------------------------------------
    # DDL (applied to every shard)
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: SchemaLike,
        partition_key: Optional[str] = None,
    ) -> None:
        """Create the table on every shard; record its partition key."""
        schema = _coerce_schema(schema)
        key = partition_key if partition_key is not None else schema.names[0]
        for shard in self.shards:
            shard.create_table(name, schema, partition_key=key)
        self._partition_keys[name] = key
        self._save_manifest()

    def create_index(self, table_name: str, column: str) -> None:
        for shard in self.shards:
            shard.create_index(table_name, column)

    def drop_table(self, name: str) -> None:
        for shard in self.shards:
            shard.drop_table(name)
        self._partition_keys.pop(name, None)
        self._save_manifest()

    @property
    def table_names(self) -> list[str]:
        return self.shards[0].table_names

    @property
    def last_cid(self) -> int:
        """The highest commit id any shard has issued."""
        return max(shard.last_cid for shard in self.shards)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, table_name: str, row: dict) -> int:
        """Autocommit single-row insert, routed by partition key."""
        key = self.partition_key(table_name)
        # ``get``: a row that omits its key column is a NULL key, which
        # the shard it hashes to accepts or rejects like any other row.
        shard = self.shards[partition_of(row.get(key), self.num_shards)]
        return shard.insert(table_name, row)

    def _partition_rows(
        self, table_name: str, rows: Sequence[dict]
    ) -> list[tuple[int, list[int]]]:
        """Split a batch into (shard, positions of its rows) groups,
        numpy-hashed."""
        key = self.partition_key(table_name)
        parts = partition_array([row.get(key) for row in rows], self.num_shards)
        return [
            (int(sid), np.nonzero(parts == sid)[0].tolist())
            for sid in np.unique(parts).tolist()
        ]

    def insert_many(self, table_name: str, rows: Sequence[dict]) -> int:
        """Hash-partition a batch and run one transactional
        ``insert_many`` per touched shard, in parallel.

        Each shard's sub-batch commits atomically; the fan-out itself is
        not a distributed transaction. Returns the number of rows
        inserted.
        """
        if not rows:
            return 0
        self._fan_out(
            lambda item: self.shards[item[0]].insert_many(
                table_name, [rows[i] for i in item[1]]
            ),
            self._partition_rows(table_name, rows),
            op="insert_many",
        )
        return len(rows)

    def bulk_insert(self, table_name: str, rows: Sequence[dict]) -> int:
        """``insert_many`` that returns ``last_cid``."""
        self.insert_many(table_name, rows)
        return self.last_cid

    def insert_each(self, table_name: str, rows: Sequence[dict]) -> list:
        """Per-row outcomes in input order, like the core's: one
        ``insert_each`` — so one transaction — per touched shard.

        When the batch cannot be partitioned (no such table, a key value
        that does not hash, a row that is not a dict) nothing has run
        yet, so each row goes through ``insert`` alone to its own answer.
        """
        try:
            groups = self._partition_rows(table_name, rows)
        except Exception:
            return each_outcome(lambda row: self.insert(table_name, row), rows)
        parts = self._fan_out(
            lambda item: self.shards[item[0]].insert_each(
                table_name, [rows[i] for i in item[1]]
            ),
            groups,
            op="insert_each",
        )
        outcomes: list = [None] * len(rows)
        for (_, picked), part in zip(groups, parts):
            for i, outcome in zip(picked, part):
                outcomes[i] = outcome
        return outcomes

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def query(
        self, table_name: str, predicate: Optional[Predicate] = None
    ) -> ShardedResult:
        """Fan the scan out to every shard; merge lazily."""
        return ShardedResult(
            self._fan_out(
                lambda shard: shard.query(table_name, predicate),
                self.shards,
                op="query",
            )
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def merge(self, table_name: str, online: bool = True) -> None:
        """Merge the table's delta into main on every shard (parallel)."""
        self._fan_out(
            lambda shard: shard.merge(table_name, online=online),
            self.shards,
            op="merge",
        )

    def checkpoint(self) -> int:
        """LOG mode: checkpoint every shard; returns total bytes written."""
        return sum(
            self._fan_out(
                lambda shard: shard.checkpoint(), self.shards, op="checkpoint"
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self._closed

    def _claim_shutdown(self) -> bool:
        """Claim the one shutdown and stop the fan-out pool; False when
        another caller already did.

        The pool stops *before* any shard does (pending tasks cancelled,
        running ones joined): crashing the shards while an
        ``insert_many`` task is still writing would let that task keep
        mutating — and, worse, making durable — shard state *after* the
        simulated power failure, corrupting the very crash state
        recovery is supposed to be tested against.
        """
        with self._close_lock:
            if self._closed:
                return False
            self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=True)
        return True

    def close(self) -> None:
        """Orderly shutdown of every shard.

        Idempotent and thread-safe, like :meth:`Database.close`: safe
        to call twice or concurrently from a signal-driven shutdown.
        """
        if self._claim_shutdown():
            for shard in self.shards:
                shard.close()

    def crash(self, survivor_fraction: float = 0.0, seed: Optional[int] = None) -> None:
        """Simulate a power failure hitting every shard at once."""
        if not self._claim_shutdown():
            return
        for index, shard in enumerate(self.shards):
            shard.crash(
                survivor_fraction=survivor_fraction,
                seed=None if seed is None else seed + index,
            )

    def restart(self, config: Optional[EngineConfig] = None) -> "ShardedEngine":
        """Close (cleanly) and reopen; returns the new instance."""
        self.close()
        return ShardedEngine(self.path, config or self.config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def verify(self) -> list[str]:
        """Consistency-check every shard; prefix violations per shard."""
        problems = []
        for index, shard in enumerate(self.shards):
            problems.extend(
                f"shard-{index:04d}: {problem}" for problem in shard.verify()
            )
        return problems

    def stats(self) -> dict:
        """:meth:`Database.stats` folded over the shards (see
        :func:`fold_stats`); the originals ride under ``per_shard``."""
        per_shard = [shard.stats() for shard in self.shards]
        out = fold_stats(per_shard)
        out.update(shards=self.num_shards, per_shard=per_shard)
        return out

    def metrics_snapshot(self) -> dict:
        """:meth:`Database.metrics_snapshot` at the engine level: the
        process registry (which already holds the fan-out queue/exec
        histograms), driver telemetry folded like :meth:`stats`, and
        the parallel recovery's report."""
        per_shard = [shard._driver.extra_stats() for shard in self.shards]
        return {
            "mode": self.mode.value,
            "shards": self.num_shards,
            "registry": get_registry().snapshot(),
            "driver": fold_stats(per_shard),
            "per_shard": per_shard,
            "recovery": self.last_recovery.as_dict(),
        }

    def logical_bytes(self) -> int:
        return sum(shard.logical_bytes() for shard in self.shards)
