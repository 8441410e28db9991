"""YCSB-style key/value workload driver.

Drives a :class:`~repro.core.database.Database` with a configurable mix
of point reads, updates, and inserts over a keyed table — the workload
shape used for the runtime-overhead (E3) and NVM-latency (E4)
experiments. Access keys are Zipf-skewed, as in the original benchmark.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core.database import Database
from repro.query.predicate import Eq
from repro.storage.types import DataType
from repro.txn.errors import TransactionConflict
from repro.workloads.generator import zipf_int

TABLE = "usertable"

SCHEMA = {
    "key": DataType.INT64,
    "field0": DataType.STRING,
    "field1": DataType.STRING,
    "counter": DataType.INT64,
}


@dataclass
class YcsbConfig:
    """Workload shape.

    ``read + update + insert`` must sum to 1. ``ops_per_txn`` batches
    several operations per commit (1 = one commit per op).
    """

    records: int = 1000
    read_ratio: float = 0.5
    update_ratio: float = 0.4
    insert_ratio: float = 0.1
    ops_per_txn: int = 1
    zipf_skew: float = 3.0
    seed: int = 42

    def __post_init__(self):
        total = self.read_ratio + self.update_ratio + self.insert_ratio
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {total}")


@dataclass
class YcsbResult:
    """Throughput and latency summary of one run."""

    operations: int = 0
    reads: int = 0
    updates: int = 0
    inserts: int = 0
    commits: int = 0
    conflicts: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_seconds == 0:
            return 0.0
        return self.operations / self.elapsed_seconds


class YcsbDriver:
    """Loads and drives the YCSB-style table."""

    def __init__(self, db: Database, config: YcsbConfig | None = None):
        self.db = db
        self.config = config or YcsbConfig()
        self._rng = random.Random(self.config.seed)
        self._next_key = self.config.records
        self._indexed = False

    def _field(self) -> str:
        return f"v{self._rng.randrange(10**6):06d}"

    def _row(self, key: int) -> dict:
        return {
            "key": key,
            "field0": self._field(),
            "field1": self._field(),
            "counter": 0,
        }

    def load(self, create_index: bool = True) -> None:
        """Create and bulk-populate the table."""
        if TABLE not in self.db.table_names:
            self.db.create_table(TABLE, SCHEMA)
        rows = [self._row(k) for k in range(self.config.records)]
        self.db.bulk_insert(TABLE, rows)
        if create_index and "key" not in self.db.indexes_on(TABLE):
            self.db.create_index(TABLE, "key")
            self._indexed = True

    def _pick_key(self) -> int:
        return zipf_int(self._rng, self._next_key, self.config.zipf_skew)

    def run(self, operations: int) -> YcsbResult:
        """Execute ``operations`` ops with the configured mix."""
        cfg = self.config
        rng = self._rng
        result = YcsbResult()
        read_cut = cfg.read_ratio
        update_cut = cfg.read_ratio + cfg.update_ratio
        start = time.perf_counter()
        done = 0
        while done < operations:
            txn = self.db.begin()
            batch = min(cfg.ops_per_txn, operations - done)
            try:
                for _ in range(batch):
                    dice = rng.random()
                    if dice < read_cut:
                        key = self._pick_key()
                        txn.query(TABLE, Eq("key", key)).rows()
                        result.reads += 1
                    elif dice < update_cut:
                        key = self._pick_key()
                        rows = txn.query(TABLE, Eq("key", key))
                        refs = rows.refs()
                        if refs:
                            txn.update(
                                TABLE,
                                refs[0],
                                {"field0": self._field(), "counter": rng.randrange(1000)},
                            )
                        result.updates += 1
                    else:
                        key = self._next_key
                        self._next_key += 1
                        txn.insert(TABLE, self._row(key))
                        result.inserts += 1
                    result.operations += 1
                txn.commit()
                result.commits += 1
            except TransactionConflict:
                txn.abort()
                result.conflicts += 1
            done += batch
        result.elapsed_seconds = time.perf_counter() - start
        return result
