"""Predicates evaluated in dictionary-code space.

A single-column predicate is a question put to its column's dictionary;
the partition only gathers the answer over its code array:

* **membership** (``Eq``/``In``/``Ne``) — one ``code_of`` probe per
  value on either dictionary kind, then a code comparison. A value the
  dictionary has never seen is an empty mask and the column is not read.
* **range** (``Lt``/``Le``/``Gt``/``Ge``/``Between``) — on **main** the
  dictionary is sorted, so the range is a code range found by two binary
  searches; on the **delta** it is unsorted, so the dictionary compares
  its value vector with the bounds once (numpy, not a python call per
  value) and the per-code truth is gathered over the codes.

Bounds and probes are moved onto the column's type first
(:func:`~repro.storage.dictionary.exact_bound`), so both partitions give
python's answer and a merge never changes a result. NULL semantics are
SQL-like: comparisons never match NULL (nor does a range match NaN);
use :class:`IsNull` / :class:`NotNull` explicitly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import exact_value
from repro.storage.main import MainPartition
from repro.storage.schema import Schema
from repro.storage.types import NULL_CODE


class Predicate(ABC):
    """Boolean condition over one row."""

    @abstractmethod
    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        """Row mask over the main partition."""

    @abstractmethod
    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        """Row mask over the delta partition."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class _ColumnPredicate(Predicate):
    """Base for single-column predicates: both partitions hand
    :meth:`_mask` the column's dictionary and NULL code."""

    def __init__(self, column: str):
        self.column = column

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        col = schema.column_index(self.column)
        column = main.columns[col]
        return self._mask(main, col, column.dictionary, column.null_code)

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        col = schema.column_index(self.column)
        return self._mask(delta, col, delta.dictionaries[col], NULL_CODE)

    def _mask(self, part, col: int, dictionary, null_code: int) -> np.ndarray:
        raise NotImplementedError


def _member_mask(part, col: int, dictionary, values) -> np.ndarray:
    """Rows of ``part`` holding one of ``values`` in column ``col``."""
    codes = []
    for value in values:
        probe = exact_value(dictionary.dtype, value)
        code = None if probe is None else dictionary.code_of(probe)
        if code is not None:
            codes.append(code)
    if not codes:
        return np.zeros(part.row_count, dtype=bool)
    if len(codes) == 1:
        return part.column_codes(col) == np.uint32(codes[0])
    # One membership test over the code array, not one mask per value.
    return np.isin(part.column_codes(col), np.asarray(codes, dtype=np.uint32))


class Eq(_ColumnPredicate):
    """``column == value``."""

    def __init__(self, column: str, value):
        super().__init__(column)
        self.value = value

    def _mask(self, part, col, dictionary, null_code) -> np.ndarray:
        return _member_mask(part, col, dictionary, (self.value,))


class Ne(_ColumnPredicate):
    """``column != value`` (NULLs excluded, per SQL)."""

    def __init__(self, column: str, value):
        super().__init__(column)
        self.value = value

    def _mask(self, part, col, dictionary, null_code) -> np.ndarray:
        mask = part.column_codes(col) != np.uint32(null_code)
        mask &= ~_member_mask(part, col, dictionary, (self.value,))
        return mask


class In(_ColumnPredicate):
    """``column IN (values)``."""

    def __init__(self, column: str, values):
        super().__init__(column)
        self.values = set(values)

    def _mask(self, part, col, dictionary, null_code) -> np.ndarray:
        return _member_mask(part, col, dictionary, self.values)


class IsNull(_ColumnPredicate):
    """``column IS NULL``."""

    def _mask(self, part, col, dictionary, null_code) -> np.ndarray:
        return part.column_codes(col) == np.uint32(null_code)


class NotNull(_ColumnPredicate):
    """``column IS NOT NULL``."""

    def _mask(self, part, col, dictionary, null_code) -> np.ndarray:
        return part.column_codes(col) != np.uint32(null_code)


class RangePredicate(_ColumnPredicate):
    """``column`` within ``bounds = (low, high, include_low,
    include_high)``; ``None`` is an open end. The five comparison
    classes below only choose the bounds."""

    def __init__(self, column: str, low, high, include_low, include_high):
        super().__init__(column)
        self.bounds = (low, high, include_low, include_high)

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        col = schema.column_index(self.column)
        lo, hi = main.columns[col].dictionary.code_range(*self.bounds)
        if hi <= lo:
            return np.zeros(main.row_count, dtype=bool)
        # NULL codes sit above every range.
        codes = main.column_codes(col)
        return (codes >= np.uint32(lo)) & (codes < np.uint32(hi))

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        col = schema.column_index(self.column)
        truth = delta.dictionaries[col].in_range(*self.bounds)
        # A false slot past the end answers for NULL_CODE, and for the
        # code of a value appended after the truth was taken (its rows
        # are later than any snapshot this scan can hold).
        return np.append(truth, False).take(
            delta.column_codes(col), mode="clip"
        )


def _operand(value):
    """A comparison's operand: NULL orders against nothing."""
    if value is None:
        raise TypeError("cannot order values against None; use IsNull")
    return value


class Lt(RangePredicate):
    """``column < value``."""

    def __init__(self, column: str, value):
        super().__init__(column, None, _operand(value), True, False)
        self.value = value


class Le(RangePredicate):
    """``column <= value``."""

    def __init__(self, column: str, value):
        super().__init__(column, None, _operand(value), True, True)
        self.value = value


class Gt(RangePredicate):
    """``column > value``."""

    def __init__(self, column: str, value):
        super().__init__(column, _operand(value), None, False, True)
        self.value = value


class Ge(RangePredicate):
    """``column >= value``."""

    def __init__(self, column: str, value):
        super().__init__(column, _operand(value), None, True, True)
        self.value = value


class Between(RangePredicate):
    """``low <= column <= high``."""

    def __init__(self, column: str, low, high):
        super().__init__(column, _operand(low), _operand(high), True, True)
        self.low = low
        self.high = high


class And(Predicate):
    """Conjunction of predicates."""

    def __init__(self, *parts: Predicate):
        if not parts:
            raise ValueError("And needs at least one predicate")
        self.parts = parts

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        mask = self.parts[0].eval_main(main, schema)
        for part in self.parts[1:]:
            mask &= part.eval_main(main, schema)
        return mask

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        mask = self.parts[0].eval_delta(delta, schema)
        for part in self.parts[1:]:
            mask &= part.eval_delta(delta, schema)
        return mask


class Or(Predicate):
    """Disjunction of predicates."""

    def __init__(self, *parts: Predicate):
        if not parts:
            raise ValueError("Or needs at least one predicate")
        self.parts = parts

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        mask = self.parts[0].eval_main(main, schema)
        for part in self.parts[1:]:
            mask |= part.eval_main(main, schema)
        return mask

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        mask = self.parts[0].eval_delta(delta, schema)
        for part in self.parts[1:]:
            mask |= part.eval_delta(delta, schema)
        return mask


class Not(Predicate):
    """Negation. NULL rows never match (matching SQL three-valued logic
    for the operators provided here would require tracking unknowns; we
    take the simpler closed-world reading and document it)."""

    def __init__(self, part: Predicate):
        self.part = part

    def eval_main(self, main: MainPartition, schema: Schema) -> np.ndarray:
        return ~self.part.eval_main(main, schema)

    def eval_delta(self, delta: DeltaPartition, schema: Schema) -> np.ndarray:
        return ~self.part.eval_delta(delta, schema)
