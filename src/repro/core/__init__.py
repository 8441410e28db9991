"""Engine facade: configuration, database lifecycle, transactions.

``Database`` is the single-shard session layer; *how* it survives
restarts is a pluggable :class:`DurabilityDriver` (NVM pool, WAL +
checkpoints, or nothing). ``ShardedEngine`` hash-partitions rows across
many ``Database`` instances and recovers them in parallel. Both satisfy
the :class:`Engine` protocol; everything outside ``repro.core`` — server,
crash sweep, reports, benchmarks — dispatches against it and opens
engines with :func:`open_engine`, never knowing which class it got.
"""

from typing import Optional, Protocol, Sequence

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database, SchemaLike, Transaction
from repro.core.durability import (
    DurabilityDriver,
    LogDriver,
    NoneDriver,
    NvmDriver,
    create_driver,
)
from repro.core.sharding import ShardedEngine, ShardedResult, is_sharded, partition_of
from repro.query.predicate import Predicate
from repro.recovery.report import RecoveryReport


class Engine(Protocol):
    """What :class:`Database` and :class:`ShardedEngine` both are.

    Data operations live in the single-shard core (``Database``);
    ``ShardedEngine`` adds only routing and fan-out. Interactive
    transactions are per core — ``shard_for(table, key).begin()`` — and
    a batch write is one transaction per touched shard; nothing takes a
    cross-shard snapshot.
    """

    path: str
    last_recovery: RecoveryReport

    @property
    def table_names(self) -> list[str]: ...

    @property
    def last_cid(self) -> int: ...

    # ``partition_key`` defaults to the first schema column.
    def create_table(
        self, name: str, schema: SchemaLike, partition_key: Optional[str] = None
    ): ...

    def create_index(self, table_name: str, column: str): ...

    def drop_table(self, name: str) -> None: ...

    def insert(self, table_name: str, row: dict) -> int: ...

    # The core returns rowrefs, the router a row count: callers that
    # need the count take ``len(rows)``.
    def insert_many(self, table_name: str, rows: Sequence[dict]): ...

    def bulk_insert(self, table_name: str, rows: Sequence[dict]) -> int: ...

    # Independent single-row inserts sharing a commit: per row, in input
    # order, its rowref or the exception ``insert`` raises for it alone.
    def insert_each(self, table_name: str, rows: Sequence[dict]) -> list: ...

    # ``repro.query.aggregate`` reduces the result, merging per-shard
    # partials when it exposes ``per_shard``.
    def query(self, table_name: str, predicate: Optional[Predicate] = None): ...

    def shard_for(self, table_name: str, key_value) -> Database: ...

    def merge(self, table_name: str, online: bool = True) -> None: ...

    def checkpoint(self) -> int: ...

    def close(self) -> None: ...

    def crash(
        self, survivor_fraction: float = 0.0, seed: Optional[int] = None
    ) -> None: ...

    def restart(self, config: Optional[EngineConfig] = None) -> "Engine": ...

    def verify(self) -> list[str]: ...

    # One key set on both: numbers summed over the shards, each shard's
    # own dict under ``per_shard`` (empty at one shard).
    def stats(self) -> dict: ...

    def metrics_snapshot(self) -> dict: ...


def open_engine(path: str, config: Optional[EngineConfig] = None) -> Engine:
    """Open the engine a directory calls for.

    The directory decides: one created sharded (it holds ``shards.json``)
    reopens sharded whatever ``config.shards`` says — a mismatching
    explicit count is an error, the default of 1 means "whatever is
    there". A new directory gets ``config.shards`` shards, and one shard
    is the bare core at ``path``: no router, no pool, no manifest.
    """
    config = (config or EngineConfig()).validated()
    if config.shards > 1 or is_sharded(path):
        return ShardedEngine(path, config)
    return Database(path, config)


__all__ = [
    "Database",
    "DurabilityDriver",
    "Engine",
    "open_engine",
    "DurabilityMode",
    "EngineConfig",
    "LogDriver",
    "NoneDriver",
    "NvmDriver",
    "ShardedEngine",
    "ShardedResult",
    "Transaction",
    "create_driver",
    "partition_of",
]
