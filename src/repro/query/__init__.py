"""Query execution: predicates, scans, projection, aggregation.

Scans are columnar and vectorised: predicates are first evaluated over
the (small) dictionaries, then mapped over code arrays, and finally
intersected with the MVCC visibility mask. Equality predicates can be
routed through a :class:`~repro.index.table_index.TableIndex`.
"""

from repro.query.predicate import (
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
)
from repro.query.scan import ScanResult, scan
from repro.query.aggregate import (
    aggregate,
    aggregate_partials,
    aggregate_scalar,
    finalize_partials,
)
from repro.query.sort import order_by, top_k
from repro.query.join import (
    JoinResult,
    anti_join,
    hash_join,
    hash_join_scalar,
    join,
    semi_join,
)

__all__ = [
    "anti_join",
    "hash_join",
    "hash_join_scalar",
    "join",
    "order_by",
    "semi_join",
    "top_k",
    "JoinResult",
    "And",
    "Between",
    "Eq",
    "Ge",
    "Gt",
    "In",
    "IsNull",
    "Le",
    "Lt",
    "Ne",
    "Not",
    "NotNull",
    "Or",
    "Predicate",
    "ScanResult",
    "aggregate",
    "aggregate_partials",
    "aggregate_scalar",
    "finalize_partials",
    "scan",
]
