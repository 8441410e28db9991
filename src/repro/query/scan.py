"""Table scans with MVCC visibility.

A scan intersects three masks per partition: the MVCC visibility mask
for the snapshot, the (optional) predicate mask, and the transaction's
own-write adjustments. Equality predicates can instead probe a
:class:`~repro.index.table_index.TableIndex` and verify visibility on
the (hopefully small) candidate set.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.query.predicate import Eq, IsNull, Predicate, RangePredicate
from repro.storage.table import _DELTA_BIT, Table, unpack_rowref
from repro.storage.types import NULL_CODE
from repro.txn.context import TransactionContext


class ScanResult:
    """Positions of visible, matching rows; values decode lazily.

    The result pins the ``(main, delta)`` partition pair it was
    evaluated against: an online-merge cutover may swap the table's
    content at any moment, and a result must keep decoding the
    generation its positions index into. Old generations are immutable
    once superseded, so late materialisation stays correct.

    The rows come as two position arrays, or as two boolean masks that
    become positions on first use, so a count never computes them.
    """

    def __init__(
        self,
        table: Table,
        main_rows: np.ndarray,
        delta_rows: np.ndarray,
        content=None,
    ):
        self.table = table
        self.main_part, self.delta_part = (
            content if content is not None else table.content
        )
        self._rows = (main_rows, delta_rows)

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the result rows in main and in delta."""
        rows = self._rows
        if rows[0].dtype == bool:
            rows = self._rows = (np.flatnonzero(rows[0]), np.flatnonzero(rows[1]))
        return rows

    def __len__(self) -> int:
        main, delta = self._rows
        if main.dtype == bool:
            return int(np.count_nonzero(main)) + int(np.count_nonzero(delta))
        return main.size + delta.size

    @property
    def count(self) -> int:
        return len(self)

    def refs(self) -> list[int]:
        """Packed rowrefs of the result rows (main first, then delta).

        Packed with numpy arithmetic (one OR of the delta bit) instead
        of a per-element comprehension.
        """
        main, delta = self.positions()
        main = np.asarray(main, dtype=np.uint64)
        delta = np.asarray(delta, dtype=np.uint64) | np.uint64(_DELTA_BIT)
        return np.concatenate([main, delta]).tolist()

    def head(self, n: int) -> "ScanResult":
        """The first ``n`` rows (main block first), same generation."""
        main, delta = self.positions()
        main = main[:n]
        delta = delta[: n - main.size]
        return ScanResult(self.table, main, delta, (self.main_part, self.delta_part))

    def column(self, name: str) -> list:
        """One column's values for the result rows (empty partitions not asked)."""
        col = self.table.schema.column_index(name)
        main, delta = self.positions()
        out = self.main_part.decode_column(col, main) if main.size else []
        if delta.size:
            out += self.delta_part.decode_column(col, delta)
        return out

    def column_array(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """One column as ``(values, null_mask)`` numpy arrays.

        The vectorized-kernel fast path: values never round-trip through
        python lists. Numeric columns come back int64/float64 with an
        undefined placeholder at NULL slots (consult the mask); string
        columns as object arrays with ``None`` at NULL slots. Row order
        matches :meth:`column`: main block first, then delta.
        """
        col = self.table.schema.column_index(name)
        main, delta = self.positions()
        if not main.size:
            return self.delta_part.column_array(col, delta)
        main_arrays = self.main_part.column_array(col, main)
        if not delta.size:
            return main_arrays
        delta_arrays = self.delta_part.column_array(col, delta)
        return tuple(np.concatenate(pair) for pair in zip(main_arrays, delta_arrays))

    def column_codes(self, name: str):
        """Per-partition dictionary codes of the result rows.

        Yields ``(codes, dictionary, null_code, is_sorted)`` for the
        main block then the delta block; ``codes`` are already gathered
        to this result's rows, so tuples from two columns align
        row-for-row within each partition. This is what the code-space
        kernels (aggregate/join) consume: one decode per distinct value
        instead of one per row.
        """
        col = self.table.schema.column_index(name)
        main_col = self.main_part.columns[col]
        main, delta = self.positions()
        yield (
            main_col.codes_at(main),
            main_col.dictionary,
            main_col.null_code,
            True,
        )
        yield (
            self.delta_part.codes_at(col, delta),
            self.delta_part.dictionaries[col],
            NULL_CODE,
            False,
        )

    def gather_column(self, name: str, indices: np.ndarray) -> list:
        """Materialise one column for result-row ``indices``.

        ``indices`` are positions into this result's row order (main
        block first, then delta), possibly repeated and in any order —
        the late-materialization hook for joins: only matched rows are
        decoded.
        """
        indices = np.asarray(indices, dtype=np.int64)
        col = self.table.schema.column_index(name)
        main, delta = self.positions()
        split = main.size
        in_main = indices < split
        out = np.empty(indices.size, dtype=object)
        if in_main.any():
            rows = main[indices[in_main]]
            out[in_main] = self.main_part.decode_column(col, rows)
        if not in_main.all():
            rows = delta[indices[~in_main] - split]
            out[~in_main] = self.delta_part.decode_column(col, rows)
        return out.tolist()

    def columns(self, names: Optional[Sequence[str]] = None) -> dict:
        """Materialise several columns as {name: values}."""
        names = list(names) if names is not None else self.table.schema.names
        return {name: self.column(name) for name in names}

    def rows(self, names: Optional[Sequence[str]] = None) -> list[dict]:
        """Materialise result rows as dicts."""
        cols = self.columns(names)
        keys = list(cols)
        return [
            dict(zip(keys, values)) for values in zip(*(cols[k] for k in keys))
        ] if keys and len(self) else []


def _visibility_masks(
    table: Table,
    content,
    snapshot_cid: int,
    ctx: Optional[TransactionContext],
) -> tuple[np.ndarray, np.ndarray]:
    main, delta = content
    main_mask = main.mvcc.visible_mask(snapshot_cid)
    delta_mask = delta.mvcc.visible_mask(snapshot_cid)
    if ctx is not None:
        # Own-write refs always address the current generation: a
        # cutover waits out any transaction holding operations on the
        # table, and a transaction without operations has nothing to
        # overlay.
        ctx.adjust_masks(table, main_mask, delta_mask)
    return main_mask, delta_mask


def scan(
    table: Table,
    snapshot_cid: Optional[int] = None,
    predicate: Optional[Predicate] = None,
    ctx: Optional[TransactionContext] = None,
    index=None,
) -> ScanResult:
    """Scan ``table`` at a snapshot, optionally filtered and indexed.

    Pass either ``ctx`` (transactional scan: snapshot + own writes) or a
    bare ``snapshot_cid``. When ``index`` covers the predicate column
    and the predicate is ``Eq``/``IsNull``, the index supplies candidate
    positions instead of a full scan.

    The ``(main, delta)`` pair is captured once: an online merge may
    cut over mid-scan, and evaluating visibility, predicate, and
    materialisation against one pinned generation is always correct —
    MVCC state is monotone across the swap (the new generation carries
    every surviving row's begin/end), so either generation answers any
    snapshot consistently.
    """
    if ctx is not None:
        snapshot_cid = ctx.snapshot_cid
    if snapshot_cid is None:
        raise ValueError("scan needs a snapshot_cid or a transaction context")
    content = table.content

    if index is not None and _index_applicable(index, predicate):
        return _index_scan(table, content, snapshot_cid, predicate, ctx, index)

    return _masked_scan(table, content, snapshot_cid, predicate, ctx)


def _masked_scan(
    table: Table,
    content,
    snapshot_cid: int,
    predicate: Optional[Predicate],
    ctx: Optional[TransactionContext],
) -> ScanResult:
    main, delta = content
    main_mask, delta_mask = _visibility_masks(table, content, snapshot_cid, ctx)
    if predicate is not None:
        main_mask &= predicate.eval_main(main, table.schema)
        delta_mask = _clamped_and(
            delta_mask, predicate.eval_delta(delta, table.schema)
        )
    return ScanResult(table, main_mask, delta_mask, content=content)


def _clamped_and(mask: np.ndarray, other: np.ndarray) -> np.ndarray:
    """AND two delta masks that may disagree on length.

    Under concurrent writers the delta can grow between the visibility
    and predicate passes of one scan. A row published after the
    visibility mask was taken cannot be visible at this snapshot (its
    commit id, if it ever gets one, is allocated after the snapshot was
    fixed), so truncating both masks to the shorter length never drops
    a visible row.
    """
    n = min(mask.shape[0], other.shape[0])
    mask = mask[:n]
    mask &= other[:n]
    return mask


def _index_applicable(index, predicate: Optional[Predicate]) -> bool:
    supported = (Eq, IsNull, RangePredicate)
    return isinstance(predicate, supported) and predicate.column == index.column


def _index_scan(
    table: Table,
    content,
    snapshot_cid: int,
    predicate: Predicate,
    ctx: Optional[TransactionContext],
    index,
) -> ScanResult:
    main, delta = content
    if not index.covers(main, delta):
        # The index belongs to a different generation than the captured
        # content (we raced a merge cutover). Probing it would return
        # positions into the wrong partitions — fall back to a full
        # masked scan of the captured pair, which is always correct.
        return _masked_scan(table, content, snapshot_cid, predicate, ctx)
    if isinstance(predicate, Eq):
        candidates = index.probe_equal(table, predicate.value, content=content)
    elif isinstance(predicate, RangePredicate):
        candidates = index.probe_range(table, *predicate.bounds, content=content)
    else:
        candidates = index.probe_null(table, content=content)
    main_positions = []
    delta_positions = []
    for ref in candidates:
        is_delta, idx = unpack_rowref(ref)
        if ctx is not None:
            visible = _row_visible_in(ctx, table, content, ref)
        else:
            mvcc = (delta if is_delta else main).mvcc
            visible = mvcc.get_begin(idx) <= snapshot_cid < mvcc.get_end(idx)
        if not visible:
            continue
        (delta_positions if is_delta else main_positions).append(idx)
    # Own inserts matching the predicate may be missing from the index
    # candidates only if the index was not maintained — the engine
    # maintains indexes inside insert, so candidates are complete.
    return ScanResult(
        table,
        np.asarray(sorted(main_positions), dtype=np.int64),
        np.asarray(sorted(delta_positions), dtype=np.int64),
        content=content,
    )


def _row_visible_in(
    ctx: TransactionContext, table: Table, content, ref: int
) -> bool:
    """:meth:`TransactionContext.row_visible` against a pinned pair."""
    if ctx.sees_own_invalidation(table.table_id, ref):
        return False
    if ctx.sees_own_insert(table.table_id, ref):
        return True
    is_delta, index = unpack_rowref(ref)
    part = content[1] if is_delta else content[0]
    if index >= part.row_count:
        return False
    mvcc = part.mvcc
    return mvcc.get_begin(index) <= ctx.snapshot_cid < mvcc.get_end(index)
