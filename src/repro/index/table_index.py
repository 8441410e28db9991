"""Composite per-table index: group-key over main + delta index.

One :class:`TableIndex` covers one column of one table. The group-key
half is regenerated at every merge (it indexes an immutable main
generation); the delta half is maintained per insert, and starts empty
whenever an index is made — created, attached after a restart or
assembled at a merge cutover — to be caught up by its first probe or
insert. The index is stamped with the exact ``(main, delta)`` partition
pair it covers so a scan racing an online-merge cutover can detect a
stale probe and fall back to a full scan of its captured generation.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator

import numpy as np

from repro.index.delta_index import VolatileDeltaIndex
from repro.index.groupkey import GroupKeyIndex
from repro.obs import get_registry
from repro.storage.backend import Backend
from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import exact_value
from repro.storage.main import MainPartition
from repro.storage.table import Table, pack_rowref
from repro.storage.types import NULL_CODE


class TableIndex:
    """Index over ``column`` of ``table`` spanning both partitions."""

    def __init__(
        self,
        column: str,
        group_key: GroupKeyIndex,
        main_part: MainPartition,
        delta_part: DeltaPartition,
    ):
        self.column = column
        self.group_key = group_key
        self.delta_index = VolatileDeltaIndex()
        # Delta half: every published delta row below this watermark is
        # indexed. Rows at or above it are ones nobody has indexed yet
        # (the whole delta of a new index) or whose writer has not
        # reached ``on_insert`` yet; whichever of probe and insert needs
        # them first indexes them, under the latch, so no row is
        # registered twice and a row published before the index was
        # registered for ``on_insert`` is still found.
        self._delta_synced_rows = 0
        self._delta_latch = threading.Lock()
        # Generation stamps: the partition objects this index was built
        # against. Identity comparison — partitions are replaced, never
        # mutated in place, by a merge cutover.
        self.main_part = main_part
        self.delta_part = delta_part

    @classmethod
    def build(cls, backend: Backend, table: Table, column: str) -> "TableIndex":
        """Index ``column`` of an existing table."""
        main, delta = table.content
        return cls.from_parts(backend, table.schema, column, main, delta)

    @classmethod
    def from_parts(
        cls,
        backend: Backend,
        schema,
        column: str,
        main: MainPartition,
        delta: DeltaPartition,
        group_key: GroupKeyIndex | None = None,
    ) -> "TableIndex":
        """Build for an explicit ``(main, delta)`` pair.

        Only the group-key half is built here (the online merge passes
        in the one its lock-free fold prebuilt). The delta half starts
        empty, as after an attach: reading no snapshot of the delta,
        it cannot mark a row indexed that a writer published meanwhile.
        """
        if group_key is None:
            col = schema.column_index(column)
            group_key = GroupKeyIndex.build(backend, main.columns[col])
        return cls(column, group_key, main, delta)

    def covers(self, main: MainPartition, delta: DeltaPartition) -> bool:
        """True when this index was built for exactly this pair."""
        return self.main_part is main and self.delta_part is delta

    def _claim(self, first: int, count: int) -> int:
        """Catch the delta half up to ``first``, then move the watermark
        past ``[first, first + count)``. Returns how many leading rows
        of that range a catch-up already indexed (the caller registers
        the rest); only a catch-up is metered (``index_catchup_*``).
        Latch held."""
        synced = self._delta_synced_rows
        if synced < first:
            start = time.perf_counter()
            delta = self.delta_part
            col = delta.schema.column_index(self.column)
            self.delta_index.add_many(
                delta.codes_at(col, np.arange(synced, first)), synced
            )
            registry = get_registry()
            registry.counter("index_catchup_rows_total").inc(first - synced)
            registry.histogram("index_catchup_seconds").observe(
                time.perf_counter() - start
            )
            synced = first
        self._delta_synced_rows = max(synced, first + count)
        return min(synced - first, count)

    def on_insert(self, code: int, position: int) -> None:
        """Maintain the delta half after a row publishes."""
        with self._delta_latch:
            if not self._claim(position, 1):
                self.delta_index.add(code, position)

    def on_insert_many(self, codes: np.ndarray, first: int) -> None:
        """Maintain the delta half for a contiguous published batch.

        One vectorized registration instead of a per-row python loop —
        ``codes[i]`` is the indexed column's code of delta row
        ``first + i``.
        """
        with self._delta_latch:
            skip = self._claim(first, len(codes))
            self.delta_index.add_many(np.asarray(codes)[skip:], first + skip)

    def ensure_delta_current(self, schema, delta: DeltaPartition) -> None:
        """Bring the delta half up to the published row count."""
        if self._delta_synced_rows < delta.row_count:
            with self._delta_latch:
                self._claim(delta.row_count, 0)

    # ------------------------------------------------------------------
    # Lookups (positions only; visibility filtering happens in the scan)
    # ------------------------------------------------------------------

    def _parts(self, table: Table, content) -> tuple:
        """``(main column, delta, column index)`` of the pinned pair,
        with the delta half brought up to the published rows."""
        main, delta = content if content is not None else table.content
        col = table.schema.column_index(self.column)
        self.ensure_delta_current(table.schema, delta)
        return main.columns[col], delta, col

    def _refs(self, main_positions, delta: DeltaPartition, codes) -> list[int]:
        """Packed rowrefs of ``main_positions``, then of the published
        delta rows holding any of the delta ``codes``."""
        refs = [pack_rowref(False, int(p)) for p in main_positions]
        limit = delta.row_count
        for code in codes:
            refs.extend(
                pack_rowref(True, int(p))
                for p in self.delta_index.lookup(code)
                if p < limit
            )
        return refs

    def probe_equal(self, table: Table, value, content=None) -> list[int]:
        """Packed rowrefs of candidate rows with ``column == value``."""
        main_col, delta, col = self._parts(table, content)
        value = exact_value(main_col.dictionary.dtype, value)
        if value is None:
            return []
        main_code = main_col.dictionary.code_of(value)
        delta_code = delta.dictionaries[col].code_of(value)
        return self._refs(
            () if main_code is None else self.group_key.lookup(main_code),
            delta,
            () if delta_code is None else (delta_code,),
        )

    def probe_range(
        self,
        table: Table,
        low=None,
        high=None,
        include_low: bool = True,
        include_high: bool = True,
        content=None,
    ) -> list[int]:
        """Packed rowrefs of candidates with ``column`` in the range.

        ``None`` bounds are open. Each dictionary answers as it does for
        an unindexed range predicate: main's with one code range (one
        contiguous positions slice), the delta's with its per-code
        truth, whose matching codes' positions are collected. NULLs
        never match a range.
        """
        main_col, delta, col = self._parts(table, content)
        bounds = (low, high, include_low, include_high)
        return self._refs(
            self.group_key.lookup_range(*main_col.dictionary.code_range(*bounds)),
            delta,
            np.flatnonzero(delta.dictionaries[col].in_range(*bounds)).tolist(),
        )

    def probe_null(self, table: Table, content=None) -> list[int]:
        """Packed rowrefs of candidate rows with ``column IS NULL``."""
        main_col, delta, _ = self._parts(table, content)
        return self._refs(
            self.group_key.lookup(main_col.null_code), delta, (NULL_CODE,)
        )

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Every pool block the index owns, as ``(offset, nbytes)``:
        the group-key half's (the delta half is in DRAM)."""
        return self.group_key.blocks()
