"""Write-optimised delta partition.

New rows always land in the delta: each column appends a dictionary code
to a growable vector, and the MVCC columns track the inserting
transaction. The insert protocol is crash-safe without any logging: the
``begin_cid`` vector is appended **last** and its published length is
the authoritative row count, so a crash mid-insert leaves only ragged
column tails that the next insert overwrites in place.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.storage.backend import Backend
from repro.storage.dictionary import UnsortedDictionary, decode_list, decode_values
from repro.storage.mvcc import INFINITY_CID, MvccColumns, NO_TID
from repro.storage.schema import Schema
from repro.storage.types import NULL_CODE, Value
from repro.storage.vector import VectorLike

_CODE_DTYPE = np.dtype(np.uint32)


def _append_or_overwrite(vector: VectorLike, index: int, value) -> None:
    """Append ``value`` at ``index``, or overwrite a crash leftover.

    Vectors ahead of the authoritative row count hold tails of inserts
    that never published; those slots are dead and safe to reuse.
    """
    if len(vector) == index:
        vector.append(value)
    else:
        vector.set(index, value)


def _extend_or_overwrite(
    vector: VectorLike, index: int, values: np.ndarray, fence: bool
) -> None:
    """Batch form of :func:`_append_or_overwrite`.

    Crash leftovers below the vector's length are overwritten in place;
    the remainder is appended with one coalesced ``extend``.
    """
    overlap = len(vector) - index
    if overlap > 0:
        vector.set_range(index, values[:overlap], fence)
        values = values[overlap:]
    if len(values):
        vector.extend(values, fence)


class DeltaPartition:
    """Append-only, dictionary-encoded delta store for one table."""

    def __init__(
        self,
        schema: Schema,
        backend: Backend,
        dictionaries: list[UnsortedDictionary],
        code_vectors: list[VectorLike],
        mvcc: MvccColumns,
    ):
        self.schema = schema
        self.backend = backend
        self.dictionaries = dictionaries
        self.code_vectors = code_vectors
        self.mvcc = mvcc
        # Append reservation latch: a writer holds this from reading
        # ``row_count`` through the begin-vector publish, so two
        # transactions can never claim overlapping row ranges.
        self.write_lock = threading.Lock()

    @classmethod
    def create(
        cls,
        schema: Schema,
        backend: Backend,
        chunk_capacity: int = 8192,
    ) -> "DeltaPartition":
        """New empty delta for ``schema`` on ``backend``."""
        dictionaries = [UnsortedDictionary.create(col.dtype, backend) for col in schema]
        code_vectors = [
            backend.make_vector(_CODE_DTYPE, chunk_capacity) for _ in schema
        ]
        mvcc = MvccColumns.create(backend, chunk_capacity)
        return cls(schema, backend, dictionaries, code_vectors, mvcc)

    @property
    def row_count(self) -> int:
        """Published row count (length of the begin_cid vector)."""
        return len(self.mvcc.begin)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Every block this delta owns, as ``(offset, nbytes)``."""
        for part in (*self.code_vectors, *self.dictionaries, self.mvcc):
            yield from part.blocks()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def encode_row(self, values: Sequence[Value]) -> list[int]:
        """Dictionary-encode a row, extending dictionaries as needed."""
        codes = []
        for dictionary, value in zip(self.dictionaries, values):
            if value is None:
                codes.append(NULL_CODE)
            else:
                codes.append(dictionary.code_for_insert(value))
        return codes

    def insert_encoded(self, codes: Sequence[int], tid: int) -> int:
        """Insert a pre-encoded row as uncommitted; returns its row index."""
        row = self.row_count
        for vector, code in zip(self.code_vectors, codes):
            _append_or_overwrite(vector, row, code)
        _append_or_overwrite(self.mvcc.end, row, INFINITY_CID)
        _append_or_overwrite(self.mvcc.tid, row, tid)
        self.mvcc.begin.append(INFINITY_CID)  # publish point
        return row

    def encode_columns(self, columns: Sequence[Sequence[Value]]) -> list:
        """Bulk dictionary-encode column-major values.

        Each column is encoded with one :meth:`UnsortedDictionary.
        codes_for_insert` pass over its non-null values; NULLs are
        scattered back as :data:`NULL_CODE`. Returns one uint32 code
        array per column.
        """
        if columns and all(len(column) == 1 for column in columns):
            # One row: a probe per column, no batch arrays and scatter.
            row = self.encode_row([column[0] for column in columns])
            return [np.array([code], dtype=_CODE_DTYPE) for code in row]
        encoded = []
        for dictionary, column in zip(self.dictionaries, columns):
            if None not in column:
                encoded.append(dictionary.codes_for_insert(column).astype(_CODE_DTYPE))
                continue
            codes = np.full(len(column), NULL_CODE, dtype=_CODE_DTYPE)
            present = [i for i, v in enumerate(column) if v is not None]
            if present:
                values = [column[i] for i in present]
                codes[np.asarray(present, dtype=np.intp)] = (
                    dictionary.codes_for_insert(values).astype(_CODE_DTYPE)
                )
            encoded.append(codes)
        return encoded

    def insert_rows_encoded(
        self, encoded_columns: Sequence[np.ndarray], tid: int
    ) -> int:
        """Insert a pre-encoded batch as uncommitted; returns first index.

        The single-row publish protocol extends to the whole batch: code
        vectors and end/tid columns are written first (one coalesced
        extend each, overwriting any crash-torn tails), and the begin
        vector extend publishes every row of the batch atomically last.
        A crash before that final publish loses the entire batch.
        """
        never = np.full(len(encoded_columns[0]), INFINITY_CID, dtype=np.uint64)
        return self._store(self.row_count, encoded_columns, never, never, tid)

    def load_encoded(
        self,
        encoded_columns: Sequence[np.ndarray],
        begin_cids: np.ndarray,
        end_cids: np.ndarray,
        first: Optional[int] = None,
    ) -> int:
        """Store pre-encoded rows carrying explicit MVCC vectors.

        The merge-cutover tail path: rows written past the freeze
        watermark are re-encoded against this fresh delta with their
        begin/end state copied verbatim (tids must already be released —
        cutover requires that no transaction holds operations on the
        table). The caller serialises; the begin store publishes last,
        as everywhere else. Returns the first row index.

        LOG replay names ``first``, the position its record carries: a
        gap below it is padded with dead rows (:meth:`pad_to`), and a
        position below the row count overwrites such padding in place.
        """
        if first is None:
            first = self.row_count
        self.pad_to(first)
        return self._store(first, encoded_columns, begin_cids, end_cids, NO_TID)

    def _store(
        self,
        first: int,
        encoded_columns: Sequence[np.ndarray],
        begin_cids: np.ndarray,
        end_cids: np.ndarray,
        tid: int,
    ) -> int:
        counts = {len(col) for col in encoded_columns}
        if len(counts) != 1:
            raise ValueError("ragged batch")
        (n,) = counts
        if n != len(begin_cids) or n != len(end_cids):
            raise ValueError("MVCC vectors disagree with row count")
        # Nothing below is read before ``begin`` covers it, and a size
        # durable ahead of its payload is a dead tail the next insert
        # overwrites: every store is flushed and rides the drain inside
        # the ``begin`` publish. Replay padding below the row count is
        # stamped in place, with no such drain ahead of the stamp, so
        # there the last store fences for all of them.
        overlap = min(self.row_count - first, n)
        for vector, codes in zip(self.code_vectors, encoded_columns):
            _extend_or_overwrite(
                vector, first, np.asarray(codes, dtype=_CODE_DTYPE), fence=False
            )
        _extend_or_overwrite(
            self.mvcc.end, first, np.asarray(end_cids, dtype=np.uint64), fence=False
        )
        _extend_or_overwrite(
            self.mvcc.tid, first, np.full(n, tid, dtype=np.uint64), fence=overlap > 0
        )
        begin = np.asarray(begin_cids, dtype=np.uint64)
        # The extend is the publish point: the batch becomes real in one.
        self.mvcc.set_begin_range(first, overlap, begin[:overlap])
        if overlap < n:
            self.mvcc.begin.extend(begin[overlap:])
        return first

    def pad_to(self, rows: int) -> None:
        """Grow to ``rows`` with dead rows (NULL codes, ``begin`` and
        ``end`` at infinity, unlocked): positions whose writers aborted,
        or commit later in the log and overwrite the padding then."""
        gap = rows - self.row_count
        if gap > 0:
            never = np.full(gap, INFINITY_CID, dtype=np.uint64)
            nulls = np.full(gap, NULL_CODE, dtype=_CODE_DTYPE)
            self.load_encoded([nulls] * len(self.code_vectors), never, never)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get_code(self, col: int, row: int) -> int:
        if row >= self.row_count:
            raise IndexError(f"row {row} beyond delta size {self.row_count}")
        return int(self.code_vectors[col].get(row))

    def column_codes(self, col: int) -> np.ndarray:
        """Codes of all published rows in column ``col`` (read-only).

        Reads through the vector's chunk views rather than a full
        ``to_numpy`` copy: a single-chunk column comes back zero-copy,
        and re-reads are not re-charged as modelled NVM read traffic.
        """
        count = self.row_count
        if count == 0:
            return np.empty(0, dtype=_CODE_DTYPE)
        parts = []
        remaining = count
        for view in self.code_vectors[col].iter_views():
            if remaining <= 0:
                break
            part = view[:remaining]
            parts.append(part)
            remaining -= len(part)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def codes_at(self, col: int, rows: np.ndarray) -> np.ndarray:
        """Codes of ``col`` at positions ``rows``, at a cost that follows
        ``rows``. Checked against the *published* row count: the code
        vectors may be longer (crash-torn tails)."""
        return self.code_vectors[col].take(rows, limit=self.row_count)

    def decode_column(self, col: int, rows: Optional[np.ndarray] = None) -> list:
        """Materialise values for ``rows`` (default: all published rows)."""
        return decode_list(*self._coded(col, rows))

    def column_array(
        self, col: int, rows: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values for ``rows`` as ``(values, null_mask)`` numpy arrays.

        Mirrors :meth:`MainPartition.column_array`: numeric columns as
        int64/float64 with an undefined placeholder at NULL slots,
        string columns as object arrays with ``None`` at NULL slots.
        """
        return decode_values(*self._coded(col, rows))

    def _coded(self, col: int, rows: Optional[np.ndarray]) -> tuple:
        codes = (
            self.column_codes(col) if rows is None else self.codes_at(col, rows)
        )
        return self.dictionaries[col], codes, NULL_CODE
