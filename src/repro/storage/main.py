"""Read-optimised main partition.

The main partition is rebuilt by each merge and immutable between merges
except for MVCC invalidations (8-byte ``end_cid``/``tid`` stores).
Column codes are bit-packed at ``ceil(log2(|dict|+1))`` bits — the +1
reserves the local NULL code, which is ``len(dictionary)``.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.nvm.pvector import checked_indices
from repro.storage import bitpack
from repro.storage.backend import Backend
from repro.storage.dictionary import SortedDictionary, decode_list, decode_values
from repro.storage.mvcc import INFINITY_CID, NO_TID, MvccColumns
from repro.storage.schema import Schema
from repro.storage.vector import VectorLike, one_chunk


class MainColumn:
    """One dictionary-compressed, bit-packed main column; ``codes``, the
    unpacked cache, comes from a merge's build and never from an attach."""

    def __init__(
        self,
        dictionary: SortedDictionary,
        words: VectorLike,
        bits: int,
        row_count: int,
        codes: Optional[np.ndarray] = None,
    ):
        self.dictionary = dictionary
        self.words = words
        self.bits = bits
        self._row_count = row_count
        self._codes_cache = codes
        self._gathered = 0  # rows charged to positional gathers

    @property
    def null_code(self) -> int:
        """Local NULL sentinel: one past the last dictionary code."""
        return len(self.dictionary)

    def codes(self) -> np.ndarray:
        """Unpacked uint32 codes (cached — the column is immutable)."""
        if self._codes_cache is None:
            self._codes_cache = bitpack.unpack(
                self.words.view(), self.bits, self._row_count
            )
        return self._codes_cache

    def codes_at(self, rows: np.ndarray) -> np.ndarray:
        """Codes of ``rows``, without unpacking the column for a few.

        While the column is still packed, a request for a small share of
        it unpacks just those positions from the words: after a restart
        a point read costs O(result), not O(main). Each such call is
        charged its rows, and at least 2k (what a call's fixed cost
        buys in unpacked rows); once the charges reach the row count the
        column is unpacked and later requests gather from it.
        """
        if self._codes_cache is None and len(rows) * 8 < self._row_count:
            self._gathered += max(len(rows), 2048)
            if self._gathered < self._row_count:
                rows = checked_indices(rows, self._row_count)
                return bitpack.unpack_at(self.words.take, self.bits, rows)
        return self.codes()[rows]

    def compressed_bytes(self) -> int:
        """Size of the packed attribute vector in bytes."""
        return len(self.words) * 8


class MainPartition:
    """Immutable main store built by the merge process."""

    def __init__(
        self, schema: Schema, columns: list[MainColumn], mvcc: MvccColumns,
        row_count: int,
    ):
        self.schema = schema
        self.columns = columns
        self.mvcc = mvcc
        self.row_count = row_count

    @classmethod
    def build(
        cls,
        schema: Schema,
        backend: Backend,
        dictionaries: list[SortedDictionary],
        code_columns: list[np.ndarray],
        begin_cids: np.ndarray,
        end_cids: np.ndarray,
    ) -> "MainPartition":
        """Persist a new main from per-column codes and MVCC state.

        ``code_columns`` use each column's local NULL code
        (``len(dictionary)``) for NULLs. Each column keeps its uint32
        codes as its unpacked cache (4 B a row in DRAM), so reads over a
        merged main, and the next merge, gather instead of unpacking.
        """
        row_count = len(begin_cids)
        columns = []
        for dictionary, codes in zip(dictionaries, code_columns):
            if len(codes) != row_count:
                raise ValueError("ragged main build")
            bits = bitpack.bits_needed(len(dictionary))
            codes = np.asarray(codes, dtype=np.uint32)
            words = bitpack.pack(codes, bits)
            # Main is immutable: one chunk sized to it wastes no space.
            words_vec = backend.make_vector(np.uint64, one_chunk(int(words.size)))
            if words.size:
                words_vec.extend(words)
            columns.append(MainColumn(dictionary, words_vec, bits, row_count, codes))
        # ``end`` and ``tid`` read as "live, unlocked" until a delete or
        # update stores into one of their ~8,192-row chunks (64 KiB).
        chunks = max(-(-row_count // 8192), 1)
        chunk = max(-(-row_count // chunks), 8)
        mvcc = MvccColumns(
            backend.make_vector(np.uint64, one_chunk(row_count)),
            backend.make_vector(np.uint64, chunk, fill=INFINITY_CID),
            backend.make_vector(np.uint64, chunk, fill=NO_TID),
        )
        if row_count:
            mvcc.extend_committed(begin_cids, end_cids)
        return cls(schema, columns, mvcc, row_count)

    @classmethod
    def empty(cls, schema: Schema, backend: Backend) -> "MainPartition":
        """A zero-row main (tables start with everything in the delta)."""
        dictionaries = [
            SortedDictionary.build(col.dtype, backend, []) for col in schema
        ]
        empty_cols = [np.empty(0, dtype=np.uint32) for _ in schema]
        none = np.empty(0, dtype=np.uint64)
        return cls.build(schema, backend, dictionaries, empty_cols, none, none)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Every block this generation owns, as ``(offset, nbytes)``."""
        for column in self.columns:
            yield from column.words.blocks()
            yield from column.dictionary.blocks()
        yield from self.mvcc.blocks()

    def column_codes(self, col: int) -> np.ndarray:
        return self.columns[col].codes()

    def decode_column(self, col: int, rows: Optional[np.ndarray] = None) -> list:
        """Materialise values for ``rows`` (default: all rows)."""
        return decode_list(*self._coded(col, rows))

    def column_array(
        self, col: int, rows: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values for ``rows`` as ``(values, null_mask)`` numpy arrays.

        The array fast path for vectorized kernels: no python lists.
        Numeric columns come back int64/float64 with an undefined
        placeholder at NULL slots (consult the mask); string columns
        come back as object arrays with ``None`` at NULL slots.
        """
        return decode_values(*self._coded(col, rows))

    def _coded(self, col: int, rows: Optional[np.ndarray]) -> tuple:
        column = self.columns[col]
        codes = column.codes() if rows is None else column.codes_at(rows)
        return column.dictionary, codes, column.null_code

    def compressed_bytes(self) -> int:
        """Total packed attribute-vector bytes across columns."""
        return sum(c.compressed_bytes() for c in self.columns)
