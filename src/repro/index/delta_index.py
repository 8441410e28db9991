"""Delta indexes: dictionary code -> delta row positions.

Maintained on every insert into an indexed column. Two variants back
experiment E7:

* :class:`VolatileDeltaIndex` — a DRAM sorted run plus multimap tail;
  cheap to maintain but must be rebuilt from the delta's codes (one
  ``argsort``) after a restart.
* :class:`PersistentDeltaIndex` — an NVM-resident
  :class:`~repro.nvm.phash.PHashMap`; pays extra flushes per insert but
  attaches after a restart with zero rebuild work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Iterator

import numpy as np

from repro.nvm.phash import PHashMap
from repro.storage.backend import NvmBackend
from repro.storage.delta import DeltaPartition


class DeltaIndex(ABC):
    """Interface shared by delta index variants."""

    @abstractmethod
    def add(self, code: int, position: int) -> None:
        """Register that delta row ``position`` holds ``code``."""

    def add_many(self, codes: np.ndarray, first: int) -> None:
        """Register a contiguous batch: row ``first + i`` holds
        ``codes[i]``. Default falls back to per-row :meth:`add`."""
        for offset, code in enumerate(codes):
            self.add(int(code), first + offset)

    @abstractmethod
    def lookup(self, code: int) -> np.ndarray:
        """Delta row positions holding ``code``."""

    @abstractmethod
    def rebuild(self, delta: DeltaPartition, col: int) -> None:
        """Reconstruct from partition contents (restart / merge)."""

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Pool blocks held, as ``(offset, nbytes)`` (none in DRAM)."""
        return iter(())

    #: True when a restart needs :meth:`rebuild` before use.
    needs_rebuild_after_restart: bool = True


class VolatileDeltaIndex(DeltaIndex):
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

    needs_rebuild_after_restart = True

    def __init__(self):
        self._run: tuple[np.ndarray, np.ndarray] | None = None
        self._tail: dict[int, list[int]] = defaultdict(list)

    def add(self, code: int, position: int) -> None:
        self._tail[code].append(position)

    def add_many(self, codes: np.ndarray, first: int) -> None:
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
        run = self._run
        tail = np.asarray(self._tail.get(code, ()), dtype=np.uint64)
        if run is None:
            return tail
        codes, positions = run
        # A python int would cast the whole run on every probe.
        key = codes.dtype.type(code)
        hit = positions[codes.searchsorted(key) : codes.searchsorted(key, "right")]
        return np.concatenate([hit, tail]) if tail.size else hit

    def rebuild(self, delta: DeltaPartition, col: int) -> None:
        self._run = None
        self._tail.clear()
        self.add_many(delta.column_codes(col), 0)

    def entry_count(self) -> int:
        run = 0 if self._run is None else len(self._run[0])
        return run + sum(len(v) for v in self._tail.values())


class PersistentDeltaIndex(DeltaIndex):
    """NVM-resident delta index (no rebuild on restart)."""

    needs_rebuild_after_restart = False

    def __init__(self, phash: PHashMap):
        self._phash = phash

    @classmethod
    def create(cls, backend: NvmBackend) -> "PersistentDeltaIndex":
        return cls(PHashMap.create(backend.pool))

    @classmethod
    def attach(cls, backend: NvmBackend, offset: int) -> "PersistentDeltaIndex":
        return cls(PHashMap.attach(backend.pool, offset))

    @property
    def offset(self) -> int:
        return self._phash.offset

    def blocks(self) -> Iterator[tuple[int, int]]:
        return self._phash.blocks()

    def add(self, code: int, position: int) -> None:
        self._phash.insert(code, position)

    def lookup(self, code: int) -> np.ndarray:
        return np.asarray(sorted(self._phash.get_all(code)), dtype=np.uint64)

    def rebuild(self, delta: DeltaPartition, col: int) -> None:
        # Index entries are added after the row publishes, so a crash can
        # only leave a *published but uncommitted* row unindexed. Such
        # rows are rolled back and stay invisible forever, so the missing
        # entry can never produce a wrong query result. Intentionally a
        # no-op, kept for interface symmetry.
        return

    def entry_count(self) -> int:
        return len(self._phash)
