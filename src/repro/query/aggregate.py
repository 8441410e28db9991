"""Aggregation over scan results, executed in dictionary-code space.

Supports ``count``, ``sum``, ``min``, ``max``, ``avg`` with an optional
single-column group-by. NULLs are skipped by every aggregate except
``count(*)``, matching SQL.

The vectorized kernels never materialise per-row python values:

* group-by runs over dictionary codes with ``np.bincount`` (rows per
  group, non-null values per group);
* a grouped ``sum``/``avg`` gathers each row's value through its code
  and adds it into its group: one weighted ``bincount`` for FLOAT64,
  an int64 scatter-add per 32-bit half for INT64, exact as python ints
  (float weights round past 2**53); ungrouped, it is sum(count(code) *
  decode(code)) over the codes present — one decode per *distinct
  value*, not per row;
* ``min``/``max`` reduce to code extremes: directly on the main
  partition (the sorted dictionary preserves value order) and through a
  one-off rank table, or the present codes' values, on the delta's
  unsorted dictionary.

Results are exposed as *partials* (:func:`aggregate_partials`) that
merge under simple laws — count adds, sum/avg add (n, total) pairs,
min/max take extremes — which is how the main and delta partitions'
states combine into one.
:func:`aggregate_scalar` keeps the row-at-a-time reference
implementation (regression baseline, and the fallback for plain
list-backed results).

Group keys in a grouped result appear in partition/code order, not
first-row order; the mapping ``{group: value}`` is identical to the
scalar path's.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.query.scan import ScanResult
from repro.storage.types import DataType

_AGGREGATES = ("count", "sum", "min", "max", "avg")


class _Total:
    """Partials-dict key for the ungrouped total (group keys can be
    any value including ``None``, so a private singleton is the only
    collision-free sentinel)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<total>"


TOTAL = _Total()


def _validate(func: str, column: Optional[str]) -> None:
    if func not in _AGGREGATES:
        raise ValueError(f"unknown aggregate {func!r}; pick from {_AGGREGATES}")
    if func != "count" and column is None:
        raise ValueError(f"{func} needs a column")


# ----------------------------------------------------------------------
# Scalar reference implementation
# ----------------------------------------------------------------------


def _fold(func: str, values: list) -> Optional[float]:
    non_null = [v for v in values if v is not None]
    if func == "count":
        return len(non_null)
    if not non_null:
        return None
    if func == "sum":
        return sum(non_null)
    if func == "min":
        return min(non_null)
    if func == "max":
        return max(non_null)
    if func == "avg":
        return sum(non_null) / len(non_null)
    raise ValueError(f"unknown aggregate {func!r}")


def aggregate_scalar(
    result,
    func: str,
    column: Optional[str] = None,
    group_by: Optional[str] = None,
):
    """Row-at-a-time aggregation (the pre-vectorization reference).

    Works on anything exposing ``column(name)``/``__len__``; the
    vectorized kernels are regression-tested element-for-element against
    this implementation.
    """
    _validate(func, column)

    if group_by is None:
        if func == "count" and column is None:
            return len(result)
        return _fold(func, result.column(column))

    keys = result.column(group_by)
    values = result.column(column) if column is not None else [1] * len(keys)
    groups: dict = {}
    for key, value in zip(keys, values):
        groups.setdefault(key, []).append(value)
    if func == "count" and column is None:
        return {key: len(vals) for key, vals in groups.items()}
    return {key: _fold(func, vals) for key, vals in groups.items()}


# ----------------------------------------------------------------------
# Partial-aggregate states and their merge laws
# ----------------------------------------------------------------------


def _merge_two(func: str, a, b):
    """Combine two partial states for ``func`` (either may be None)."""
    if a is None:
        return b
    if b is None:
        return a
    if func == "count":
        return a + b
    if func in ("sum", "avg"):
        return (a[0] + b[0], a[1] + b[1])
    if func == "min":
        return a if a <= b else b
    return a if a >= b else b  # max


def _merge_state(states: dict, key, func: str, new) -> None:
    if new is None and func not in ("min", "max"):
        return
    if key in states:
        states[key] = _merge_two(func, states[key], new)
    elif func in ("min", "max"):
        # min/max groups must exist even when all values are NULL.
        states[key] = new
    elif new is not None:
        states[key] = new


def _finalize_one(func: str, state):
    if func == "count":
        return state if state is not None else 0
    if state is None:
        return None
    if func in ("sum", "avg"):
        n, total = state
        if n == 0:
            return None
        return total / n if func == "avg" else total
    return state  # min / max


def finalize_partials(func: str, states: dict, grouped: bool):
    """Turn merged partial states into the user-facing result."""
    if grouped:
        return {key: _finalize_one(func, state) for key, state in states.items()}
    return _finalize_one(func, states.get(TOTAL))


# ----------------------------------------------------------------------
# Vectorized per-partition kernels
# ----------------------------------------------------------------------


def _scalar(value, dtype: DataType):
    if dtype is DataType.INT64:
        return int(value)
    if dtype is DataType.FLOAT64:
        return float(value)
    return value


def _decode_codes(dictionary, codes: np.ndarray, dtype: DataType) -> list:
    """Decode an array of valid codes to python values."""
    arr = dictionary.decode_array(codes)
    if dtype is DataType.STRING:
        return list(arr)
    return arr.tolist()


def _group_ids(gcodes: np.ndarray, null_code: int, n_values: int) -> np.ndarray:
    """Codes -> contiguous local group ids with NULL mapped to the top slot."""
    ids = gcodes.astype(np.int64)
    ids[ids == int(null_code)] = n_values
    return ids


def _present_group_keys(
    gdict, present: np.ndarray, n_values: int, dtype: DataType
) -> list:
    """Decode present local group ids to group-key values (None = NULL)."""
    non_null = present[present < n_values]
    decoded = iter(_decode_codes(gdict, non_null, dtype))
    return [None if g == n_values else next(decoded) for g in present.tolist()]


def _grouped_sums(
    gids: np.ndarray,
    vcodes: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    dtype: DataType,
) -> np.ndarray:
    """Per-group sums of non-null values, added in row order.

    ``gids``/``vcodes`` are the non-null rows' group ids and value
    codes, ``values`` the dictionary's values in code order. FLOAT64 is
    one weighted ``bincount``; INT64 is an int64 scatter-add per half
    (:func:`_exact`), exact where float weights would round past 2**53.
    Both cost O(rows), whatever the number of groups or distinct values.
    """
    if dtype is DataType.INT64:
        high, low = np.zeros((2, n_groups), dtype=np.int64)
        for sums, half in ((high, values >> 32), (low, values & 0xFFFFFFFF)):
            np.add.at(sums, gids, half[vcodes])
        return _exact(high, low)
    return np.bincount(gids, weights=values[vcodes], minlength=n_groups)


def _exact(high, low) -> list:
    """INT64 sums from int64 sums of each value's signed high and
    unsigned low 32 bits (each exact up to 2**31 rows), recombined as
    python ints: exact past 2**63, where one int64 sum wraps."""
    high, low = np.atleast_1d(high).tolist(), np.atleast_1d(low).tolist()
    return [(h << 32) + lo for h, lo in zip(high, low)]


def _grouped_extremes(
    gids: np.ndarray,
    vcodes: np.ndarray,
    dictionary,
    is_sorted: bool,
    n_groups: int,
    func: str,
    dtype: DataType,
) -> list:
    """Per-group min/max as code extremes; ``None`` where no non-null.

    On the main partition the dictionary is sorted, so the smallest
    code *is* the smallest value. On the delta a rank table (argsort of
    the distinct values) makes the same reduction order-correct.
    """
    n_values = len(dictionary)
    if n_values == 0 or gids.size == 0:
        return [None] * n_groups
    if is_sorted:
        ranks = vcodes
        code_of_rank = None
    else:
        order = np.argsort(dictionary.values_array(), kind="stable")
        rank_of = np.empty(n_values, dtype=np.int64)
        rank_of[order] = np.arange(n_values)
        ranks = rank_of[vcodes]
        code_of_rank = order
    if func == "min":
        acc = np.full(n_groups, n_values, dtype=np.int64)
        np.minimum.at(acc, gids, ranks)
        missing = acc == n_values
    else:
        acc = np.full(n_groups, -1, dtype=np.int64)
        np.maximum.at(acc, gids, ranks)
        missing = acc == -1
    safe = np.where(missing, 0, acc)
    if code_of_rank is not None:
        safe = code_of_rank[safe]
    decoded = _decode_codes(dictionary, safe, dtype)
    return [
        None if miss else value
        for miss, value in zip(missing.tolist(), decoded)
    ]


def _accumulate_total(
    states: dict, result: ScanResult, func: str, column: Optional[str]
) -> None:
    """Fold one result's partitions into the ungrouped TOTAL state."""
    if func == "count" and column is None:
        _merge_state(states, TOTAL, "count", len(result))
        return
    dtype = result.table.schema.column(column).dtype
    for codes, dictionary, null_code, is_sorted in result.column_codes(column):
        if codes.size == 0:
            continue
        vcodes = codes.astype(np.int64)
        vcodes = vcodes[vcodes != int(null_code)]
        n = int(vcodes.size)
        if func == "count":
            _merge_state(states, TOTAL, "count", n)
            continue
        if n == 0:
            if func in ("min", "max"):
                _merge_state(states, TOTAL, func, None)
            continue
        if func in ("sum", "avg") and dtype is DataType.STRING:
            raise TypeError(f"{func} needs a numeric column")
        if func in ("min", "max") and is_sorted:
            code = vcodes.min() if func == "min" else vcodes.max()
            value = _scalar(dictionary.value_of(int(code)), dtype)
            _merge_state(states, TOTAL, func, value)
            continue
        # The codes present, by counting: a value no visible row holds
        # (an inf of a deleted row) takes no part.
        counts = np.bincount(vcodes)
        present = np.flatnonzero(counts)
        if func in ("sum", "avg"):
            values = dictionary.decode_array(present)
            weights = counts[present]
            if dtype is DataType.INT64:
                (total,) = _exact(
                    weights @ (values >> 32), weights @ (values & 0xFFFFFFFF)
                )
            else:
                total = float(weights @ values)
            _merge_state(states, TOTAL, func, (n, total))
            continue
        decoded = _decode_codes(dictionary, present, dtype)
        value = min(decoded) if func == "min" else max(decoded)
        _merge_state(states, TOTAL, func, value)


def _accumulate_groups(
    states: dict,
    result: ScanResult,
    func: str,
    column: Optional[str],
    group_by: str,
) -> None:
    """Fold one result's partitions into per-group states."""
    schema = result.table.schema
    gdtype = schema.column(group_by).dtype
    vdtype = schema.column(column).dtype if column is not None else None
    if func in ("sum", "avg") and vdtype is DataType.STRING:
        raise TypeError(f"{func} needs a numeric column")

    parts = result.column_codes(group_by)
    value_parts = (
        result.column_codes(column) if column is not None else None
    )
    for gcodes, gdict, gnull, _gsorted in parts:
        vpart = next(value_parts) if value_parts is not None else None
        if gcodes.size == 0:
            continue
        n_gvals = len(gdict)
        n_groups = n_gvals + 1  # trailing slot: the NULL group
        gids = _group_ids(gcodes, gnull, n_gvals)
        rows_per_group = np.bincount(gids, minlength=n_groups)
        present = np.nonzero(rows_per_group)[0]
        keys = _present_group_keys(gdict, present, n_gvals, gdtype)

        if func == "count" and column is None:
            for g, key in zip(present.tolist(), keys):
                _merge_state(states, key, "count", int(rows_per_group[g]))
            continue

        vcodes_all, vdict, vnull, vsorted = vpart
        vmask = vcodes_all != np.asarray(vnull, dtype=vcodes_all.dtype)
        gnn = gids[vmask]
        vnn = vcodes_all[vmask].astype(np.int64)
        non_null_counts = np.bincount(gnn, minlength=n_groups)

        if func == "count":
            for g, key in zip(present.tolist(), keys):
                _merge_state(states, key, "count", int(non_null_counts[g]))
            continue

        if func in ("sum", "avg"):
            sums = _grouped_sums(
                gnn, vnn, vdict.values_array(), n_groups, vdtype
            )
            for g, key in zip(present.tolist(), keys):
                n = int(non_null_counts[g])
                _merge_state(
                    states, key, func, (n, _scalar(sums[g], vdtype))
                )
            continue

        extremes = _grouped_extremes(
            gnn, vnn, vdict, vsorted, n_groups, func, vdtype
        )
        for g, key in zip(present.tolist(), keys):
            _merge_state(states, key, func, extremes[g])


def aggregate_partials(
    result: ScanResult,
    func: str,
    column: Optional[str] = None,
    group_by: Optional[str] = None,
) -> dict:
    """Vectorized aggregation of one scan result into partial states.

    Returns ``{group_key: state}`` (``TOTAL`` when ungrouped) for
    :func:`finalize_partials`.
    """
    _validate(func, column)
    states: dict = {}
    if group_by is None:
        _accumulate_total(states, result, func, column)
    else:
        _accumulate_groups(states, result, func, column, group_by)
    return states


# ----------------------------------------------------------------------
# User-facing entry point
# ----------------------------------------------------------------------


def aggregate(
    result,
    func: str,
    column: Optional[str] = None,
    group_by: Optional[str] = None,
):
    """Aggregate a scan result.

    ``aggregate(r, "count")`` counts rows; other functions need a
    ``column``. With ``group_by``, returns ``{group_value: aggregate}``.

    Scan results run through the code-space kernels; other result-likes
    fall back to the scalar reference implementation.
    """
    _validate(func, column)
    if not isinstance(result, ScanResult):
        return aggregate_scalar(result, func, column, group_by)
    partials = aggregate_partials(result, func, column, group_by)
    return finalize_partials(func, partials, group_by is not None)
