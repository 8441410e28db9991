"""Hash joins between scan results, executed over dictionary codes.

A single-pass equi-join: the right input assigns each distinct key
value its rows hold a compact id (one decode per code held), the left
input probes that map, and the matched (left, right) row-index pairs
are produced with a sort + binary-search kernel — no per-row python
loop and no row dicts until the caller materialises them.
Inputs are visibility-filtered scan results, so the join sees exactly
one snapshot. NULL keys never join (SQL semantics).

:func:`join` returns a :class:`JoinResult` of matched row indices;
columns decode lazily and only for matched rows (late materialization).
:func:`hash_join` keeps the historical rows-of-dicts interface on top,
and :func:`hash_join_scalar` the row-at-a-time reference
implementation the kernel is regression-tested against. Output row
order is left-major (all matches of left row 0 first); the scalar
implementation orders by probe side, so compare join *sets*, not
sequences.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

import numpy as np

from repro.query.scan import ScanResult
from repro.storage.dictionary import used_codes

#: Key-id sentinels: NULL keys and keys absent from the right side.
_NULL_ID = -2
_MISS_ID = -1


def _key_ids(
    result: ScanResult, key: str, id_map: dict, grow: bool
) -> np.ndarray:
    """Map each result row's key to a compact id (decode per distinct
    code the rows hold, found by counting).

    Python's ``==`` on the decoded values assigns ids: NaN joins
    nothing, an int and a float match only when exactly equal. With
    ``grow`` new values get fresh ids (build side); without, unknown
    values map to ``_MISS_ID`` (probe side). NULL rows map to ``_NULL_ID``.
    """
    parts = []
    for codes, dictionary, null_code, _sorted in result.column_codes(key):
        n_values = len(dictionary)
        used = used_codes(codes, n_values)
        values = dictionary.decode_array(used).tolist()
        if grow:
            ids = [id_map.setdefault(v, len(id_map)) for v in values]
        else:
            ids = [id_map.get(v, _MISS_ID) for v in values]
        # Code -> id through a table; the trailing slot is NULL, and a
        # slot no row holds is never read.
        table = np.full(n_values + 1, _NULL_ID, dtype=np.int64)
        table[used] = ids
        local = codes.astype(np.int64)
        local[local == int(null_code)] = n_values
        parts.append(table[local])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _probe_ids(
    left: ScanResult, right: ScanResult, left_key: str,
    right_key: Optional[str],
) -> tuple[np.ndarray, np.ndarray]:
    """``(left ids, right ids)`` over one id map of the keys the right
    rows hold: a left id >= 0 has a match."""
    id_map: dict = {}
    r_ids = _key_ids(right, right_key or left_key, id_map, grow=True)
    return _key_ids(left, left_key, id_map, grow=False), r_ids


def _match_pairs(
    l_ids: np.ndarray, r_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (left_row, right_row) index pairs with equal non-null ids.

    Sort the right ids once, locate each left id's run with two
    searchsorteds, and expand the runs with repeat/cumsum arithmetic —
    the whole match is O((L + R) log R) with no python loop.
    """
    order = np.argsort(r_ids, kind="stable")
    sorted_ids = r_ids[order]
    lo = np.searchsorted(sorted_ids, l_ids, side="left")
    hi = np.searchsorted(sorted_ids, l_ids, side="right")
    counts = np.where(l_ids >= 0, hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    left_rows = np.repeat(np.arange(l_ids.size), counts)
    offsets = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(offsets, counts)
    right_rows = order[np.repeat(lo, counts) + within]
    return left_rows, right_rows


class JoinResult:
    """Matched row-index pairs; values decode lazily per column.

    Late materialization: only matched rows of requested columns are
    ever decoded, through :meth:`ScanResult.gather_column`.
    """

    def __init__(
        self,
        left: ScanResult,
        right: ScanResult,
        left_rows: np.ndarray,
        right_rows: np.ndarray,
    ):
        self.left = left
        self.right = right
        self.left_rows = left_rows
        self.right_rows = right_rows

    def __len__(self) -> int:
        return self.left_rows.size

    def rows(
        self,
        left_columns: Optional[Sequence[str]] = None,
        right_columns: Optional[Sequence[str]] = None,
    ) -> list[dict]:
        """Materialise matched rows as merged dicts.

        Name collisions from the right side are prefixed with the right
        table's name when the two values differ (the historical
        contract of :func:`hash_join`).
        """
        left = (
            list(left_columns)
            if left_columns is not None
            else self.left.table.schema.names
        )
        right = (
            list(right_columns)
            if right_columns is not None
            else self.right.table.schema.names
        )
        taken = set(left)
        right_table = self.right.table.name
        names = left + [f"{right_table}.{n}" if n in taken else n for n in right]
        left_values = [self.left.gather_column(n, self.left_rows) for n in left]
        right_values = [self.right.gather_column(n, self.right_rows) for n in right]
        out = [dict(zip(names, row)) for row in zip(*left_values, *right_values)]
        # A right name that a left name takes keeps its prefixed key
        # only where the two values differ.
        for name, values in zip(right, right_values):
            if name in taken:
                prefixed = f"{right_table}.{name}"
                mine = left_values[left.index(name)]
                for row, a, b in zip(out, mine, values):
                    if a == b:
                        del row[prefixed]
        return out


def join(
    left: ScanResult,
    right: ScanResult,
    left_key: str,
    right_key: Optional[str] = None,
) -> JoinResult:
    """Inner equi-join on ``left_key = right_key``; lazy result."""
    left_rows, right_rows = _match_pairs(
        *_probe_ids(left, right, left_key, right_key)
    )
    return JoinResult(left, right, left_rows, right_rows)


def hash_join(
    left: ScanResult,
    right: ScanResult,
    left_key: str,
    right_key: Optional[str] = None,
    left_columns: Optional[Sequence[str]] = None,
    right_columns: Optional[Sequence[str]] = None,
) -> list[dict]:
    """Inner equi-join of two scan results on ``left_key = right_key``.

    Output rows merge the selected columns; name collisions from the
    right side are prefixed with the right table's name.
    """
    return join(left, right, left_key, right_key).rows(
        left_columns, right_columns
    )


def hash_join_scalar(
    left: ScanResult,
    right: ScanResult,
    left_key: str,
    right_key: Optional[str] = None,
    left_columns: Optional[Sequence[str]] = None,
    right_columns: Optional[Sequence[str]] = None,
) -> list[dict]:
    """Row-at-a-time hash join (the pre-vectorization reference).

    Builds a python hash table over the smaller input's rows and probes
    with the larger; kept as the regression baseline for :func:`join`.
    """
    right_key = right_key or left_key
    left_rows = left.rows(left_columns)
    right_rows = right.rows(right_columns)

    build_rows, probe_rows = right_rows, left_rows
    build_key, probe_key = right_key, left_key
    swapped = False
    if len(left_rows) < len(right_rows):
        build_rows, probe_rows = left_rows, right_rows
        build_key, probe_key = left_key, right_key
        swapped = True

    table: dict = defaultdict(list)
    for row in build_rows:
        key = row[build_key]
        if key is not None:
            table[key].append(row)

    right_name = right.table.name
    out = []
    for probe_row in probe_rows:
        key = probe_row[probe_key]
        if key is None:
            continue
        for build_row in table.get(key, ()):
            l_row, r_row = (
                (build_row, probe_row) if swapped else (probe_row, build_row)
            )
            merged = dict(l_row)
            for name, value in r_row.items():
                if name in merged and merged[name] != value:
                    merged[f"{right_name}.{name}"] = value
                elif name not in merged:
                    merged[name] = value
            out.append(merged)
    return out


def _left_rows_at(left: ScanResult, indices: np.ndarray) -> list[dict]:
    names = left.table.schema.names
    cols = [left.gather_column(name, indices) for name in names]
    return [
        dict(zip(names, values)) for values in zip(*cols)
    ] if indices.size else []


def semi_join(
    left: ScanResult, right: ScanResult, left_key: str,
    right_key: Optional[str] = None,
) -> list[dict]:
    """Rows of ``left`` having at least one match in ``right``."""
    l_ids, _ = _probe_ids(left, right, left_key, right_key)
    return _left_rows_at(left, np.flatnonzero(l_ids >= 0))


def anti_join(
    left: ScanResult, right: ScanResult, left_key: str,
    right_key: Optional[str] = None,
) -> list[dict]:
    """Rows of ``left`` with no match in ``right`` (NULL keys kept out)."""
    l_ids, _ = _probe_ids(left, right, left_key, right_key)
    return _left_rows_at(left, np.flatnonzero(l_ids == _MISS_ID))
