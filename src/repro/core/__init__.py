"""Engine facade: configuration, database lifecycle, transactions.

``Database`` is the engine: open a directory, recover it and serve it.
*How* it survives restarts is a pluggable :class:`DurabilityDriver`
(NVM pool, WAL + checkpoints, or nothing).
"""

from repro.core.config import DurabilityMode, EngineConfig
from repro.core.database import Database, Transaction
from repro.core.durability import (
    DurabilityDriver,
    LogDriver,
    NoneDriver,
    NvmDriver,
    create_driver,
)

__all__ = [
    "Database",
    "DurabilityDriver",
    "DurabilityMode",
    "EngineConfig",
    "LogDriver",
    "NoneDriver",
    "NvmDriver",
    "Transaction",
    "create_driver",
]
