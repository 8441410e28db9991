"""Table: a schema plus one main and one delta partition.

Rows are addressed by a packed 64-bit *row reference* that encodes the
partition and the row index — the unit stored in undo records and index
position lists::

    bit 63        1 = delta, 0 = main
    bits 0..62    row index within the partition
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.storage.backend import Backend
from repro.storage.delta import DeltaPartition
from repro.storage.main import MainPartition
from repro.storage.mvcc import MvccColumns
from repro.storage.schema import Schema
from repro.storage.types import Value

_DELTA_BIT = 1 << 63
_INDEX_MASK = _DELTA_BIT - 1


def pack_rowref(is_delta: bool, index: int) -> int:
    """Encode a (partition, index) row reference into a u64."""
    if index > _INDEX_MASK:
        raise ValueError("row index too large")
    return (_DELTA_BIT | index) if is_delta else index


def unpack_rowref(ref: int) -> tuple[bool, int]:
    """Decode a packed row reference: (is_delta, index)."""
    return bool(ref & _DELTA_BIT), ref & _INDEX_MASK


class OpsGate:
    """Shared/exclusive gate serialising row operations against cutover.

    Writers hold the gate *shared* around {row placement, WAL record,
    undo bookkeeping} so a merge cutover — which holds it *exclusive* —
    never observes a row that is published but missing from its
    transaction's undo records. Shared sections are tiny (dictionary
    encoding happens outside), so exclusive acquisition is prompt; a
    pending exclusive request blocks *new* shared entries, which keeps
    cutover from starving under a steady writer stream.

    Lock order: the gate is always taken before the transaction
    manager's commit lock, never inside it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._shared = 0
        self._exclusive = False
        self._exclusive_waiting = 0

    @contextmanager
    def shared(self):
        with self._cond:
            while self._exclusive or self._exclusive_waiting:
                self._cond.wait()
            self._shared += 1
        try:
            yield
        finally:
            with self._cond:
                self._shared -= 1
                if self._shared == 0:
                    self._cond.notify_all()

    def acquire_exclusive(self, timeout: float | None = None) -> bool:
        """Take the gate exclusively; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._exclusive_waiting += 1
            try:
                while self._exclusive or self._shared:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                    self._cond.wait(remaining)
                self._exclusive = True
                return True
            finally:
                self._exclusive_waiting -= 1
                if not self._exclusive:
                    # Timed out: unblock shared waiters we were holding off.
                    self._cond.notify_all()

    def release_exclusive(self) -> None:
        with self._cond:
            self._exclusive = False
            self._cond.notify_all()

    @contextmanager
    def exclusive(self, timeout: float | None = None):
        if not self.acquire_exclusive(timeout):
            raise TimeoutError("ops gate exclusive acquisition timed out")
        try:
            yield
        finally:
            self.release_exclusive()


class Table:
    """One logical table of the engine."""

    def __init__(
        self,
        table_id: int,
        name: str,
        schema: Schema,
        backend: Backend,
        main: MainPartition,
        delta: DeltaPartition,
        generation: int = 0,
    ):
        self.table_id = table_id
        self.name = name
        self.schema = schema
        self.backend = backend
        # The (main, delta) pair is one atomic tuple: readers snapshot it
        # with a single attribute load, and an online-merge cutover
        # replaces it with a single store — a scan can never see the new
        # main paired with the old delta or vice versa.
        self._content: tuple[MainPartition, DeltaPartition] = (main, delta)
        self.generation = generation
        # Serialises row operations (placement + undo bookkeeping)
        # against merge cutover. See :class:`OpsGate`.
        self.ops_gate = OpsGate()

    @property
    def main(self) -> MainPartition:
        return self._content[0]

    @main.setter
    def main(self, value: MainPartition) -> None:
        self._content = (value, self._content[1])

    @property
    def delta(self) -> DeltaPartition:
        return self._content[1]

    @delta.setter
    def delta(self, value: DeltaPartition) -> None:
        self._content = (self._content[0], value)

    @property
    def content(self) -> tuple[MainPartition, DeltaPartition]:
        """The current (main, delta) pair as one consistent snapshot."""
        return self._content

    def publish_content(
        self, main: MainPartition, delta: DeltaPartition
    ) -> None:
        """Atomically swap in a new generation's (main, delta) pair."""
        self._content = (main, delta)

    @classmethod
    def create(
        cls,
        table_id: int,
        name: str,
        schema: Schema,
        backend: Backend,
    ) -> "Table":
        """New empty table (empty main, empty delta)."""
        main = MainPartition.empty(schema, backend)
        delta = DeltaPartition.create(schema, backend)
        return cls(table_id, name, schema, backend, main, delta)

    # ------------------------------------------------------------------
    # Row addressing
    # ------------------------------------------------------------------

    @property
    def main_row_count(self) -> int:
        return self.main.row_count

    @property
    def delta_row_count(self) -> int:
        return self.delta.row_count

    @property
    def row_count(self) -> int:
        """Physical row-version count (including invisible versions)."""
        return self.main_row_count + self.delta_row_count

    def mvcc_for(self, ref: int) -> tuple[MvccColumns, int]:
        """MVCC columns and local index for a packed row reference."""
        is_delta, index = unpack_rowref(ref)
        part = self.delta if is_delta else self.main
        if index >= part.row_count:
            raise IndexError(f"rowref {ref} out of range")
        return part.mvcc, index

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get_row(self, ref: int) -> list[Value]:
        """All column values of one row version, ignoring visibility
        (caller filters): each column's one-row ``decode_column``."""
        is_delta, index = unpack_rowref(ref)
        part = self.delta if is_delta else self.main
        row = np.array([index])
        return [part.decode_column(c, row)[0] for c in range(len(self.schema))]

    def get_row_dict(self, ref: int) -> dict:
        """Row version as a {column: value} dict."""
        return dict(zip(self.schema.names, self.get_row(ref)))

    # ------------------------------------------------------------------
    # Writes (called by the transaction manager)
    # ------------------------------------------------------------------

    def change_token(self) -> tuple:
        """Cheap fingerprint of this table's physical state.

        Two equal tokens mean the table's checkpoint-relevant state is
        unchanged: the generation counter catches merge cutovers, the
        row counts catch every publish (including crash-torn garbage
        rows, whose placement a snapshot must preserve), and the MVCC
        mutation counters catch in-place commit/abort fix-ups. Used by
        incremental checkpoints to skip clean tables.
        """
        main, delta = self._content
        return (
            self.generation,
            main.row_count,
            main.mvcc.mutations,
            delta.row_count,
            delta.mvcc.mutations,
        )

    def stats(self) -> dict:
        """Size and compression statistics (for reports)."""
        return {
            "name": self.name,
            "main_rows": self.main_row_count,
            "delta_rows": self.delta_row_count,
            "generation": self.generation,
            "main_compressed_bytes": self.main.compressed_bytes(),
            "dictionary_entries": {
                "main": [len(c.dictionary) for c in self.main.columns],
                "delta": [len(d) for d in self.delta.dictionaries],
            },
        }
