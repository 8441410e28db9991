"""Write-ahead logging and checkpointing — the classic durability baseline.

This is the mechanism Hyrise-NV is compared against: logical operation
logging with group commit, plus periodic checkpoints that bound replay
work. Restart cost is O(checkpoint size + log tail), i.e. linear in the
data — the behaviour the paper's headline experiment contrasts with
NVM-resident storage.
"""

from repro.wal.records import (
    CommitRecord,
    CreateTableRecord,
    InsertRecord,
    InvalidateRecord,
    LogRecord,
    decode_record,
    encode_record,
)
from repro.wal.writer import LogWriter
from repro.wal.reader import read_log
from repro.wal.checkpoint import TableSnapshot

__all__ = [
    "CommitRecord",
    "CreateTableRecord",
    "InsertRecord",
    "InvalidateRecord",
    "LogRecord",
    "LogWriter",
    "TableSnapshot",
    "decode_record",
    "encode_record",
    "read_log",
]
