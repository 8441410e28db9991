"""The delta index: dictionary code -> delta row positions.

Volatile (DRAM) and maintained on every insert into an indexed column.
Whatever it does not yet cover — every row after a restart, a merge
cutover or an index creation — ``TableIndex`` catches up from the
delta's codes, one ``argsort`` (DESIGN.md decision 4).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


class VolatileDeltaIndex:
    """DRAM delta index: one sorted run plus a dict tail.

    :meth:`add_many` into an empty index builds the run — the batch's
    codes sorted stably beside their positions, one ``np.argsort`` —
    and everything else goes to the tail, a code -> positions dict.
    Rows are registered in position order, so the run only ever covers
    rows below the tail's and a lookup (the run's slice, found by two
    binary searches, then the tail's list) is ascending. The run is one
    attribute swapped in whole: a reader holding no latch sees no run
    or all of it, never new codes beside old positions.
    """

    def __init__(self):
        self._run: tuple[np.ndarray, np.ndarray] | None = None
        self._tail: dict[int, list[int]] = defaultdict(list)

    def add(self, code: int, position: int) -> None:
        """Register that delta row ``position`` holds ``code``."""
        self._tail[code].append(position)

    def add_many(self, codes: np.ndarray, first: int) -> None:
        """Register a contiguous batch: row ``first + i`` holds
        ``codes[i]``."""
        codes = np.asarray(codes)
        if codes.size == 0:
            return
        if self._run is None and not self._tail:
            order = np.argsort(codes, kind="stable")
            self._run = (codes[order], (order + first).astype(np.uint64))
            return
        tail = self._tail
        for code, position in zip(codes.tolist(), range(first, first + codes.size)):
            tail[code].append(position)

    def lookup(self, code: int) -> np.ndarray:
        """Delta row positions holding ``code``, ascending."""
        run = self._run
        tail = np.asarray(self._tail.get(code, ()), dtype=np.uint64)
        if run is None:
            return tail
        codes, positions = run
        # A python int would cast the whole run on every probe.
        key = codes.dtype.type(code)
        hit = positions[codes.searchsorted(key) : codes.searchsorted(key, "right")]
        return np.concatenate([hit, tail]) if tail.size else hit

    def entry_count(self) -> int:
        run = 0 if self._run is None else len(self._run[0])
        return run + sum(len(v) for v in self._tail.values())
