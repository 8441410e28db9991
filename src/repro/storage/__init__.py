"""Columnar storage engine: main/delta partitions with dictionary compression.

The layout follows Hyrise: every table is split into a read-optimised
**main** partition (sorted dictionary, bit-packed attribute vectors,
immutable between merges) and a write-optimised **delta** partition
(unsorted append-only dictionary). All structures are built on a
pluggable memory backend, so the same partition code runs on volatile
DRAM (for the log-based baseline) and on the NVM pool (for Hyrise-NV).
"""

from repro.storage.types import DataType, NULL_CODE
from repro.storage.schema import ColumnDef, Schema, SchemaError
from repro.storage.vector import VectorLike, VolatileVector
from repro.storage.backend import Backend, NvmBackend, VolatileBackend
from repro.storage.mvcc import INFINITY_CID, NO_TID, MvccColumns
from repro.storage.dictionary import SortedDictionary, UnsortedDictionary
from repro.storage.delta import DeltaPartition
from repro.storage.main import MainPartition
from repro.storage.table import Table

__all__ = [
    "Backend",
    "ColumnDef",
    "DataType",
    "DeltaPartition",
    "INFINITY_CID",
    "MainPartition",
    "MvccColumns",
    "NO_TID",
    "NULL_CODE",
    "NvmBackend",
    "Schema",
    "SchemaError",
    "SortedDictionary",
    "Table",
    "UnsortedDictionary",
    "VectorLike",
    "VolatileBackend",
    "VolatileVector",
]
