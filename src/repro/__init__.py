"""Hyrise-NV reproduction.

A columnar in-memory storage engine whose durability comes from
(simulated) byte-addressable non-volatile memory, reproducing
*"Leveraging non-volatile memory for instant restarts of in-memory
database systems"* (Schwalb et al., ICDE 2016), together with the
log-based baseline it is compared against.

Public entry points::

    from repro import (
        Database, EngineConfig, DurabilityMode, DataType, Schema,
        Eq, Lt, Between, ...,
    )
"""

from repro.core import (
    Database,
    DurabilityDriver,
    DurabilityMode,
    EngineConfig,
    Transaction,
)
from repro.obs import (
    MetricsRegistry,
    get_registry,
    set_registry,
    to_json,
    to_prometheus,
    trace_phase,
)
from repro.storage import ColumnDef, DataType, Schema, SchemaError
from repro.query import (
    And,
    Between,
    Eq,
    Ge,
    Gt,
    In,
    IsNull,
    Le,
    Lt,
    Ne,
    Not,
    NotNull,
    Or,
    Predicate,
    aggregate,
    anti_join,
    hash_join,
    order_by,
    scan,
    semi_join,
    top_k,
)
from repro.replication import AckMode, Follower, WalShipper
from repro.txn import TransactionConflict, TransactionError

__version__ = "1.0.0"

__all__ = [
    "AckMode",
    "And",
    "Between",
    "ColumnDef",
    "DataType",
    "Database",
    "DurabilityDriver",
    "DurabilityMode",
    "EngineConfig",
    "Eq",
    "Follower",
    "Ge",
    "Gt",
    "In",
    "IsNull",
    "Le",
    "Lt",
    "MetricsRegistry",
    "Ne",
    "Not",
    "NotNull",
    "Or",
    "Predicate",
    "Schema",
    "SchemaError",
    "Transaction",
    "TransactionConflict",
    "TransactionError",
    "WalShipper",
    "aggregate",
    "anti_join",
    "get_registry",
    "hash_join",
    "order_by",
    "scan",
    "semi_join",
    "set_registry",
    "to_json",
    "to_prometheus",
    "top_k",
    "trace_phase",
]
