"""The experiments' synthetic workloads: seeded row generators and a
YCSB-style key/value driver.

Every generator is seeded, so an experiment issues the same rows and
the same operation stream run to run. Value domains give dictionaries
realistic compression ratios: many repeats in categorical columns,
near-unique keys. The YCSB driver mixes Zipf-skewed point reads,
updates and inserts over a keyed table; E3 and E4 drive it.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass

from repro.core.database import Database
from repro.query.predicate import Eq
from repro.storage.schema import Schema
from repro.storage.types import DataType
from repro.txn.errors import TransactionConflict

_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliett "
    "kilo lima mike november oscar papa quebec romeo sierra tango "
    "uniform victor whiskey xray yankee zulu"
).split()


def zipf_int(rng: random.Random, n: int, skew: float = 3.0) -> int:
    """Skewed integer in [0, n); higher ``skew`` concentrates on small keys.

    A rejection-free power-law approximation of Zipfian access
    (P(key < k) = (k/n)^(1/skew)); skew=1 is uniform.
    """
    u = rng.random()
    return min(int(n * (u ** skew)), n - 1)


class RowGenerator:
    """Rows for a simple key/payload table.

    Schema: ``id INT64, category STRING, payload STRING, amount FLOAT64,
    quantity INT64`` — a mix of near-unique, categorical, and free-text
    columns exercising every dictionary path.
    """

    SCHEMA = {
        "id": DataType.INT64,
        "category": DataType.STRING,
        "payload": DataType.STRING,
        "amount": DataType.FLOAT64,
        "quantity": DataType.INT64,
    }

    def __init__(self, seed: int = 7, categories: int = 32, null_rate: float = 0.02):
        self._rng = random.Random(seed)
        self._categories = [
            f"{_WORDS[i % len(_WORDS)]}-{i}" for i in range(categories)
        ]
        self._null_rate = null_rate
        self._next_id = 0

    def row(self) -> dict:
        """One fresh row (ids are sequential and unique)."""
        rng = self._rng
        row_id = self._next_id
        self._next_id += 1
        amount = None
        if rng.random() >= self._null_rate:
            amount = round(rng.uniform(0.5, 500.0), 2)
        return {
            "id": row_id,
            "category": rng.choice(self._categories),
            "payload": "".join(
                rng.choices(string.ascii_lowercase, k=rng.randint(8, 24))
            ),
            "amount": amount,
            "quantity": rng.randint(1, 100),
        }

    def rows(self, count: int) -> list[dict]:
        return [self.row() for _ in range(count)]


class WideRowGenerator:
    """Wide mixed-type rows for the restart-time experiments.

    Width makes per-row byte volume larger, so checkpoint/replay costs
    (which scale with bytes) dominate over per-row Python overhead —
    matching the paper's 92.2 GB dataset regime at laptop scale.
    """

    def __init__(self, seed: int = 11, int_cols: int = 6, str_cols: int = 4):
        self._rng = random.Random(seed)
        self._int_cols = [f"i{k}" for k in range(int_cols)]
        self._str_cols = [f"s{k}" for k in range(str_cols)]
        self._next_id = 0

    @property
    def schema(self) -> Schema:
        cols = {"id": DataType.INT64}
        cols.update({name: DataType.INT64 for name in self._int_cols})
        cols.update({name: DataType.STRING for name in self._str_cols})
        return Schema.of(**cols)

    def row(self) -> dict:
        rng = self._rng
        row = {"id": self._next_id}
        self._next_id += 1
        for k, name in enumerate(self._int_cols):
            # Varying domain sizes per column: from dense categorical to
            # near-unique, spanning dictionary compression regimes.
            domain = 10 ** (1 + k % 5)
            row[name] = rng.randrange(domain)
        for k, name in enumerate(self._str_cols):
            domain = 50 * (k + 1)
            row[name] = f"{_WORDS[rng.randrange(len(_WORDS))]}-{rng.randrange(domain)}"
        return row

    def rows(self, count: int) -> list[dict]:
        return [self.row() for _ in range(count)]


YCSB_TABLE = "usertable"
YCSB_SCHEMA = {
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
        if YCSB_TABLE not in self.db.table_names:
            self.db.create_table(YCSB_TABLE, YCSB_SCHEMA)
        rows = [self._row(k) for k in range(self.config.records)]
        self.db.bulk_insert(YCSB_TABLE, rows)
        if create_index and "key" not in self.db.indexes_on(YCSB_TABLE):
            self.db.create_index(YCSB_TABLE, "key")

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
                        txn.query(YCSB_TABLE, Eq("key", key)).rows()
                        result.reads += 1
                    elif dice < update_cut:
                        key = self._pick_key()
                        rows = txn.query(YCSB_TABLE, Eq("key", key))
                        refs = rows.refs()
                        if refs:
                            txn.update(
                                YCSB_TABLE,
                                refs[0],
                                {"field0": self._field(), "counter": rng.randrange(1000)},
                            )
                        result.updates += 1
                    else:
                        key = self._next_key
                        self._next_key += 1
                        txn.insert(YCSB_TABLE, self._row(key))
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
