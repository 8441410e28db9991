"""Delta indexes: dictionary code -> delta row positions.

Maintained on every insert into an indexed column. Two variants back
experiment E7:

* :class:`VolatileDeltaIndex` — a DRAM multimap; cheap to maintain but
  must be rebuilt by scanning the delta after a restart.
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
    """DRAM multimap delta index."""

    needs_rebuild_after_restart = True

    def __init__(self):
        self._map: dict[int, list[int]] = defaultdict(list)

    def add(self, code: int, position: int) -> None:
        self._map[code].append(position)

    def add_many(self, codes: np.ndarray, first: int) -> None:
        # Vectorized group-by-code: one stable argsort, then one list
        # slice per distinct code (python-level work per code, not per
        # row, and no per-group numpy call — indexed columns are often
        # unique). The stable sort keeps each code's positions
        # ascending, matching what repeated add() calls would produce.
        codes = np.asarray(codes)
        if codes.size == 0:
            return
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
        )
        positions = (order + first).tolist()
        bounds = starts.tolist() + [len(positions)]
        for code, lo, hi in zip(
            sorted_codes[starts].tolist(), bounds, bounds[1:]
        ):
            self._map[code].extend(positions[lo:hi])

    def lookup(self, code: int) -> np.ndarray:
        return np.asarray(self._map.get(code, ()), dtype=np.uint64)

    def rebuild(self, delta: DeltaPartition, col: int) -> None:
        self._map.clear()
        self.add_many(delta.column_codes(col), 0)

    def entry_count(self) -> int:
        return sum(len(v) for v in self._map.values())


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
