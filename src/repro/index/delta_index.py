"""The delta index: dictionary code -> delta row positions.

Volatile (DRAM) and maintained on every insert into an indexed column.
Whatever it does not yet cover — every row after a restart, a merge
cutover or an index creation — ``TableIndex`` catches up from the
delta's codes, one ``argsort`` (DESIGN.md decision 4).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: A batch and the tail fold into the run once they reach this share of it.
FOLD_SHARE = 1 / 16


class VolatileDeltaIndex:
    """DRAM delta index: one sorted run plus a dict tail.

    The run holds codes sorted stably beside their positions, the tail
    code -> positions. :meth:`add_many` folds a batch that, with the
    tail, reaches :data:`FOLD_SHARE` of the run into a new run (the
    first batch builds it); a smaller batch and :meth:`add` go to the
    tail. Rows are registered in position order, so a lookup (the run's
    slice by two binary searches, then the tail's list) ascends. Run and
    tail are one attribute swapped in whole: a reader holding no latch
    sees the old pair or the new one, never a row in both or neither.
    """

    def __init__(self):
        self._state = (np.empty(0, "u4"), np.empty(0, "u8"), defaultdict(list))
        self._tail_rows = 0  # written under the caller's latch only

    def add(self, code: int, position: int) -> None:
        """Register that delta row ``position`` holds ``code``."""
        self._state[2][code].append(position)
        self._tail_rows += 1

    def add_many(self, codes: np.ndarray, first: int) -> None:
        """Register a contiguous batch: row ``first + i`` holds
        ``codes[i]``."""
        codes = np.asarray(codes)
        run_codes, run_positions, tail = self._state
        if not codes.size or codes.size + self._tail_rows < FOLD_SHARE * run_codes.size:
            for code, position in zip(codes.tolist(), range(first, first + codes.size)):
                tail[code].append(position)
            self._tail_rows += codes.size
            return
        # Tail, then batch: rows above the run's, each code's ascending,
        # so a stable sort keeps every code's rows in position order.
        held = [p for ps in tail.values() for p in ps]
        if held:
            tail_codes = [c for c, ps in tail.items() for _ in ps]
            codes = np.concatenate([np.array(tail_codes, codes.dtype), codes])
        order = np.argsort(codes, kind="stable")
        codes, positions = codes[order], (order + (first - len(held))).astype(np.uint64)
        if held:
            from_tail = order < len(held)
            positions[from_tail] = np.array(held, np.uint64)[order[from_tail]]
        if run_codes.size:  # after the run's equal codes: their rows are lower
            at = run_codes.searchsorted(codes, "right")
            codes = np.insert(run_codes, at, codes)
            positions = np.insert(run_positions, at, positions)
        self._state = (codes, positions, defaultdict(list))
        self._tail_rows = 0

    def lookup(self, code: int) -> np.ndarray:
        """Delta row positions holding ``code``, ascending."""
        codes, positions, tail = self._state
        # A python int would cast the whole run on every probe.
        key = codes.dtype.type(code)
        hit = positions[codes.searchsorted(key) : codes.searchsorted(key, "right")]
        more = tail.get(code)
        return np.concatenate([hit, np.array(more, np.uint64)]) if more else hit

    def entry_count(self) -> int:
        return self._state[0].size + self._tail_rows
