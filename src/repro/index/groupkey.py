"""Group-key index over a main partition column.

For a dictionary-compressed column the index is two arrays::

    offsets[code] .. offsets[code+1]   slice into
    positions[...]                     row indexes having that code

(CSR layout). Because main codes are dictionary-ordered, equality *and*
range predicates become one or two binary-search-free slice lookups.
The index covers codes ``0..len(dict)`` — the extra bucket collects the
NULL rows.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.storage.backend import Backend, NvmBackend
from repro.storage.main import MainColumn
from repro.storage.vector import VectorLike, one_chunk


class GroupKeyIndex:
    """Immutable positions index for one main column generation."""

    def __init__(self, offsets: VectorLike, positions: VectorLike):
        self._offsets_vec = offsets
        self._positions_vec = positions
        # Immutable, so read in place: zero-copy when each is one chunk.
        self._offsets = offsets.view()
        self._positions = positions.view()

    @classmethod
    def build(cls, backend: Backend, column: MainColumn) -> "GroupKeyIndex":
        """Build from a main column's codes (run at merge time)."""
        codes = column.codes()
        n_buckets = len(column.dictionary) + 1  # + NULL bucket
        counts = np.bincount(codes, minlength=n_buckets)
        offsets = np.zeros(n_buckets + 1, dtype=np.uint64)
        offsets[1:] = np.cumsum(counts).astype(np.uint64)
        positions = np.argsort(codes, kind="stable").astype(np.uint64)
        offsets_vec = backend.make_vector(np.uint64, one_chunk(offsets.size))
        positions_vec = backend.make_vector(np.uint64, one_chunk(positions.size))
        offsets_vec.extend(offsets)
        if positions.size:
            positions_vec.extend(positions)
        return cls(offsets_vec, positions_vec)

    @classmethod
    def attach(
        cls, backend: NvmBackend, offsets_offset: int, positions_offset: int
    ) -> "GroupKeyIndex":
        """Re-open a persisted index after restart — no rebuild."""
        return cls(
            backend.attach_vector(offsets_offset),
            backend.attach_vector(positions_offset),
        )

    @property
    def offsets_vector(self) -> VectorLike:
        return self._offsets_vec

    @property
    def positions_vector(self) -> VectorLike:
        return self._positions_vec

    def lookup(self, code: int) -> np.ndarray:
        """Row positions whose value has dictionary code ``code``."""
        lo = int(self._offsets[code])
        hi = int(self._offsets[code + 1])
        return self._positions[lo:hi]

    def lookup_range(self, code_lo: int, code_hi: int) -> np.ndarray:
        """Row positions with code in ``[code_lo, code_hi)``."""
        if code_hi <= code_lo:
            return np.empty(0, dtype=np.uint64)
        lo = int(self._offsets[code_lo])
        hi = int(self._offsets[code_hi])
        return self._positions[lo:hi]

    def blocks(self) -> Iterator[tuple[int, int]]:
        """The two vectors' blocks, as ``(offset, nbytes)``."""
        yield from self._offsets_vec.blocks()
        yield from self._positions_vec.blocks()
