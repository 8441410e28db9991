"""Transactions: insert-only MVCC with an NVM-resident transaction table.

The commit protocol is the heart of the paper's instant-restart claim:
every data mutation is preceded by a durable operation record in the
transaction table, and the *durable commit point* is an 8-byte state
store on the transaction's slot. Recovery therefore only inspects the
(bounded) transaction table — never the data — rolling ACTIVE
transactions back and COMMITTING transactions forward.
"""

from repro.txn.errors import (
    TransactionAborted,
    TransactionConflict,
    TransactionError,
    TooManyActiveTransactions,
)
from repro.txn.txn_table import (
    OP_INSERT_MANY,
    OP_INVALIDATE,
    PersistentTxnTable,
    SLOT_ACTIVE,
    SLOT_COMMITTING,
    SLOT_FREE,
    VolatileTxnTable,
)
from repro.txn.context import TransactionContext
from repro.txn.manager import TransactionManager

__all__ = [
    "OP_INSERT_MANY",
    "OP_INVALIDATE",
    "PersistentTxnTable",
    "SLOT_ACTIVE",
    "SLOT_COMMITTING",
    "SLOT_FREE",
    "TooManyActiveTransactions",
    "TransactionAborted",
    "TransactionConflict",
    "TransactionContext",
    "TransactionError",
    "TransactionManager",
    "VolatileTxnTable",
]
