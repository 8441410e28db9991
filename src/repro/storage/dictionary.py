"""Dictionary compression for column values.

Two dictionary kinds, as in Hyrise:

* :class:`UnsortedDictionary` — the delta partition's dictionary. Values
  are appended in first-seen order to a persisted value vector; lookup
  runs through a volatile sorted run plus dict tail, the run rebuilt by
  one ``argsort`` on first use after a restart.
* :class:`SortedDictionary` — the main partition's dictionary, built at
  merge time. Values are sorted, so codes preserve value order and range
  predicates translate to code ranges.

Value storage is dtype-specific: INT64/FLOAT64 values live directly in a
vector; STRING values live in the blob heap with a vector of handles.
"""

from __future__ import annotations

import math
import threading
from itertools import compress, count, repeat
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.storage.backend import Backend, NvmBackend
from repro.storage.types import DataType
from repro.storage.vector import VectorLike, one_chunk

_STORAGE_DTYPE = {
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.STRING: np.dtype(np.uint64),  # blob handles
}


def exact_bound(dtype: DataType, bound, include: bool, lower: bool) -> tuple:
    """One end of a range as ``(bound of the column's own type, inclusive)``.

    numpy compares a value with a bound of another type after casting
    one of them; python compares exactly. With the bound moved onto the
    column's type first (``i < 2.5`` is ``i <= 2``; an int no float
    equals becomes the float next to it) the two agree, on either
    dictionary kind. ``None`` is an open end, and stays ``None`` only
    for STRING. A bound the column's values cannot be ordered against
    raises ``TypeError``.
    """
    if isinstance(bound, np.generic):
        bound = bound.item()
    wanted = str if dtype is DataType.STRING else (int, float)
    if bound is not None and not isinstance(bound, wanted):
        raise TypeError(f"cannot order {dtype.name} values against {bound!r}")
    if dtype is DataType.STRING:
        return bound, include
    least, greatest = (
        (-(1 << 63), (1 << 63) - 1)
        if dtype is DataType.INT64
        else (-math.inf, math.inf)
    )
    if bound is None:  # open: closed at the extreme, so NaN stays outside
        return (least if lower else greatest), True
    if bound != bound:  # a NaN bound admits nothing
        return (greatest if lower else least), False
    try:
        value = math.floor(bound) if dtype is DataType.INT64 else float(bound)
    except OverflowError:  # ±inf on INT64, an int beyond every float
        value = greatest if bound > 0 else least
    value = min(max(value, least), greatest)
    if value == bound:
        return value, include
    # No value of the column's type lies between ``value`` and the bound,
    # so the bound moves onto it: closed if that was inwards, else open.
    return value, (value > bound) == lower


def exact_value(dtype: DataType, value):
    """``value`` as the column's own type, or None when no stored value
    can equal it (NULL, NaN, 2.5 on INT64, a value of another type)."""
    if value is None:
        return None
    try:
        exact, _ = exact_bound(dtype, value, True, True)
    except TypeError:
        return None
    return exact if exact == value else None


def _value_blocks(dictionary) -> Iterator[tuple[int, int]]:
    """A dictionary's value vector and the blob behind each STRING
    value, as ``(offset, nbytes)`` blocks."""
    yield from dictionary.values.blocks()
    if dictionary.dtype is DataType.STRING:
        blob_block = dictionary._backend.blob_block
        for handle in dictionary.values.to_numpy().tolist():
            yield blob_block(handle)


# Fewer codes than this decode one at a time (``value_of``); more go
# through one array decode. Both cost about the same at 8 codes on
# either partition kind (DESIGN.md *Materialisation*).
SMALL_DECODE = 8


def used_codes(codes: np.ndarray, n_values: int) -> np.ndarray:
    """Sorted distinct codes below ``n_values`` (NULL is never one), by
    counting: a ``bincount`` is linear where a unique would sort."""
    return np.flatnonzero(np.bincount(codes[codes < n_values]))


def decode_values(dictionary, codes: np.ndarray, null_code: int) -> tuple:
    """``codes`` as ``(values, null_mask)`` arrays: an undefined numeric
    placeholder at NULL slots, ``None`` in an object (STRING) array."""
    null_mask = codes == np.uint32(null_code)
    values = dictionary.decode_array(np.where(null_mask, 0, codes))
    if values.dtype == object and null_mask.any():
        values[null_mask] = None
    return values, null_mask


def decode_list(dictionary, codes: np.ndarray, null_code: int) -> list:
    """``codes`` as python values, ``None`` at ``null_code``."""
    if len(codes) < SMALL_DECODE:
        value_of = dictionary.value_of
        return [None if c == null_code else value_of(c) for c in codes.tolist()]
    values, null_mask = decode_values(dictionary, codes, null_code)
    out = values.tolist()
    if values.dtype != object:
        for i in np.flatnonzero(null_mask).tolist():
            out[i] = None
    return out


class UnsortedDictionary:
    """Append-only dictionary for the delta partition.

    The *value vector* is the durable authority; the lookup is a
    volatile accelerator, built from it on first use after an attach.
    """

    def __init__(self, dtype: DataType, backend: Backend, values: VectorLike):
        self.dtype = dtype
        self._backend = backend
        self.values = values
        # Serialises code assignment: two writers probing-then-appending
        # concurrently could hand out duplicate codes for one value. The
        # volatile lookup is also (re)built under it, so a reader's
        # rebuild can never overwrite what a writer just recorded.
        self._insert_lock = threading.Lock()
        # The volatile lookup, ``(run, run codes, tail)``: see
        # ``_ensure_lookup``. None until first needed after an attach.
        self._lookup: Optional[tuple[np.ndarray, np.ndarray, dict]] = None
        # STRING only: decoded values in code order, over-allocated and
        # append-only; ``_strings_len`` entries are valid. Numeric codes
        # decode straight from the persisted value vector instead. The
        # latch makes "decode the new tail" one step: two readers that
        # both see a grown dictionary must not both extend the table.
        self._strings = np.empty(0, dtype=object)
        self._strings_len = 0
        self._strings_latch = threading.Lock()

    @classmethod
    def create(
        cls, dtype: DataType, backend: Backend, chunk_capacity: int = 1024
    ) -> "UnsortedDictionary":
        """New empty dictionary."""
        values = backend.make_vector(_STORAGE_DTYPE[dtype], chunk_capacity)
        out = cls(dtype, backend, values)
        out._ensure_lookup()  # an empty run: every value goes to the tail
        return out

    @classmethod
    def from_values(
        cls, dtype: DataType, backend: Backend, values: Sequence
    ) -> "UnsortedDictionary":
        """Bulk-load a dictionary from values in code order (restore path)."""
        out = cls.create(dtype, backend)
        if values:
            if dtype is DataType.STRING:
                raw = np.fromiter(
                    (backend.put_str(v) for v in values),
                    dtype=np.uint64,
                    count=len(values),
                )
            else:
                raw = np.asarray(list(values), dtype=_STORAGE_DTYPE[dtype])
            out.values.extend(raw)
        out._lookup = None  # rebuilt lazily from the loaded values
        return out

    @classmethod
    def attach(
        cls, dtype: DataType, backend: NvmBackend, values_offset: int
    ) -> "UnsortedDictionary":
        """Re-open after restart. The volatile lookup is rebuilt on the
        first probe or insert — an O(delta) cost the instant-restart
        experiments account for."""
        return cls(dtype, backend, backend.attach_vector(values_offset))

    def __len__(self) -> int:
        return len(self.values)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Every block this dictionary owns, as ``(offset, nbytes)``."""
        return _value_blocks(self)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def value_of(self, code: int):
        """Decode one dictionary code back to its value."""
        if code < self._strings_len:  # STRING, decoded already
            return self._strings[code]
        raw = self.values.get(code)
        if self.dtype is DataType.STRING:
            return self._backend.get_str(int(raw))
        if self.dtype is DataType.INT64:
            return int(raw)
        return float(raw)

    def values_list(self) -> list:
        """All values in code order (used by merge and checkpoints)."""
        return self.values_array().tolist()

    def _string_table(self) -> np.ndarray:
        """Decoded strings in code order; only the new tail is decoded."""
        total = len(self.values)
        with self._strings_latch:
            done = self._strings_len
            if done < total:
                if total > self._strings.size:
                    grown = np.empty(max(total, 2 * done), dtype=object)
                    grown[:done] = self._strings[:done]
                    self._strings = grown
                handles = self.values.take(np.arange(done, total))
                get_str = self._backend.get_str
                for code, handle in enumerate(handles.tolist(), start=done):
                    self._strings[code] = get_str(handle)
                self._strings_len = total
            return self._strings[:total]

    def values_array(self) -> np.ndarray:
        """Values in code order as a numpy array (int64/float64/object).

        Callers must not mutate the result.
        """
        if self.dtype is DataType.STRING:
            return self._string_table()
        return self.values.to_numpy()

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Decode an array of valid (non-NULL) codes to a values array.

        Returns a fresh, writable array; NULL handling is the caller's
        job (pre-substitute code 0 and patch afterwards).
        """
        if len(self.values) == 0:
            # Only reachable when every incoming code was NULL.
            if self.dtype is DataType.STRING:
                return np.full(len(codes), None, dtype=object)
            return np.zeros(len(codes), dtype=_STORAGE_DTYPE[self.dtype])
        if self.dtype is DataType.STRING:
            return self._string_table()[np.asarray(codes, dtype=np.intp)]
        return self.values.take(codes)

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def _ensure_lookup(self) -> None:
        """Build the volatile lookup: the values sorted by one ``argsort``
        beside their codes (the run), and an empty dict that inserts fill
        (the tail), published as one attribute. STRING values go to the
        tail: an object ``argsort`` costs 3-6x the dict (DESIGN.md
        decision 4). Insert lock held, so no writer appends between the
        snapshot and the assignment."""
        if self._lookup is None:
            values, tail = self.values_array(), {}
            if self.dtype is DataType.STRING:
                tail = {value: code for code, value in enumerate(values.tolist())}
                values = values[:0]
            order = np.argsort(values)
            self._lookup = (values[order], order, tail)

    def code_of(self, value) -> Optional[int]:
        """Code of ``value`` if present, else None: one binary search of
        the run, then one probe of the tail."""
        lookup = self._lookup
        if lookup is None:
            with self._insert_lock:
                self._ensure_lookup()
                lookup = self._lookup
        run, codes, tail = lookup
        if run.size:
            # In the run's own dtype: a python int would cast the run.
            key = run.dtype.type(value)
            at = run.searchsorted(key)
            if at < run.size and run[at] == key:
                return int(codes[at])
        return tail.get(value)

    def code_for_insert(self, value) -> int:
        """Code of ``value``, appending it to the dictionary if new."""
        with self._insert_lock:
            self._ensure_lookup()  # code_of must not re-take the lock
            existing = self.code_of(value)
            if existing is not None:
                return existing
            if self.dtype is DataType.STRING:
                raw = self._backend.put_str(value)
            else:
                raw = value
            code = self.values.append(raw)
            self._lookup[2][value] = code
            return code

    def in_range(
        self, low=None, high=None, include_low=True, include_high=True
    ) -> np.ndarray:
        """Per-code truth of "the value lies in the range": one
        vectorised comparison per bound over :meth:`values_array`."""
        low, include_low = exact_bound(self.dtype, low, include_low, True)
        high, include_high = exact_bound(self.dtype, high, include_high, False)
        values = self.values_array()
        if self.dtype is DataType.STRING:
            # A bare str operand becomes a fixed-width numpy string,
            # which drops its trailing NULs; a 0-d object array does not.
            low, high = (
                b if b is None else np.array(b, dtype=object) for b in (low, high)
            )
        truth = np.ones(values.size, dtype=bool)
        if low is not None:
            truth &= values >= low if include_low else values > low
        if high is not None:
            truth &= values <= high if include_high else values < high
        return truth

    def codes_for_insert(self, values: Sequence) -> np.ndarray:
        """Codes for a batch of non-null values, appending new ones.

        Probe first, sort never: one binary search of the run for every
        numeric value, one pass of the tail over what it missed, and the
        misses — de-duplicated in first-occurrence order — appended with
        one vector ``extend``. The dictionary is what a loop of
        :meth:`code_for_insert` would have left, but for NaN: every NaN
        of one batch shares one new code.
        """
        with self._insert_lock:
            self._ensure_lookup()
            run, run_codes, tail = self._lookup
            codes = np.empty(len(values), dtype=np.int64)
            probe = np.arange(len(values))
            if self.dtype is DataType.STRING:
                keys = values
            else:
                arr = np.asarray(values, dtype=_STORAGE_DTYPE[self.dtype])
                if run.size:
                    at = np.minimum(run.searchsorted(arr), run.size - 1)
                    hit = run[at] == arr
                    codes[hit] = run_codes[at[hit]]
                    probe = np.flatnonzero(~hit)
                keys = arr[probe].tolist()
            found = np.fromiter(map(tail.get, keys, repeat(-1)), np.int64, len(keys))
            codes[probe] = found
            missed = found < 0
            if missed.any():
                miss, misses = probe[missed], list(compress(keys, missed.tolist()))
                if self.dtype is DataType.FLOAT64 and np.isnan(arr[miss]).any():
                    # A dict matches NaN by identity only: the batch's
                    # NaNs share its first, bits and all.
                    nan = next(v for v in misses if v != v)
                    misses = [nan if v != v else v for v in misses]
                new = dict(zip(dict.fromkeys(misses), count(len(self.values))))
                if self.dtype is DataType.STRING:
                    put_str = self._backend.put_str
                    raws = np.fromiter(map(put_str, new), np.uint64, len(new))
                else:
                    raws = np.asarray(list(new), dtype=_STORAGE_DTYPE[self.dtype])
                self.values.extend(raws)
                tail.update(new)
                codes[miss] = list(map(new.__getitem__, misses))
            return codes.view(np.uint64)


class SortedDictionary:
    """Order-preserving dictionary for the (immutable) main partition."""

    def __init__(self, dtype: DataType, backend: Backend, values: VectorLike):
        self.dtype = dtype
        self._backend = backend
        self.values = values
        self._array: Optional[np.ndarray] = None  # see ``values_array``
        self._decodes = 0  # see ``_decode_each``

    @classmethod
    def build(
        cls, dtype: DataType, backend: Backend, sorted_values: Sequence
    ) -> "SortedDictionary":
        """Persist a dictionary from already-sorted, distinct values (a
        numeric ndarray is stored as it is)."""
        n = len(sorted_values)
        storage = backend.make_vector(_STORAGE_DTYPE[dtype], one_chunk(n))
        if dtype is DataType.STRING:
            raw = np.fromiter(
                (backend.put_str(v) for v in sorted_values), dtype=np.uint64, count=n
            )
        else:
            raw = np.asarray(sorted_values, dtype=_STORAGE_DTYPE[dtype])
        if n:
            storage.extend(raw)
        return cls(dtype, backend, storage)

    @classmethod
    def attach(
        cls, dtype: DataType, backend: NvmBackend, values_offset: int
    ) -> "SortedDictionary":
        """Re-open after restart; the values are read on first use."""
        return cls(dtype, backend, backend.attach_vector(values_offset))

    def __len__(self) -> int:
        return len(self.values)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Every block this dictionary owns, as ``(offset, nbytes)``."""
        return _value_blocks(self)

    def values_array(self) -> np.ndarray:
        """Values in code (= sorted) order as a read-only numpy array.

        Numerics are the value vector read in place (:meth:`VectorLike.
        view`); strings are decoded once into an object array. The main
        dictionary is immutable, so either serves the partition's
        lifetime.
        """
        if self._array is None:
            raw = self.values.view()
            if self.dtype is DataType.STRING:
                get_str = self._backend.get_str
                raw = np.array([get_str(h) for h in raw.tolist()], dtype=object)
                raw.flags.writeable = False
            self._array = raw
        return self._array

    def _decode_each(self, n: int) -> bool:
        """Whether ``n`` more STRING values decode one blob each: until
        such decodes add up to the dictionary's size, then it is whole."""
        if self._array is not None or self.dtype is not DataType.STRING:
            return False
        self._decodes += n
        return self._decodes < len(self)

    def value_of(self, code: int):
        """Decode one code (codes are positions in sorted order)."""
        if self._decode_each(1):
            return self._backend.get_str(int(self.values.get(code)))
        value = self.values_array()[code]
        return value if self.dtype is DataType.STRING else value.item()

    def values_list(self) -> list:
        return self.values_array().tolist()

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Decode an array of valid (non-NULL) codes to a values array.

        Returns a fresh, writable array; NULL handling is the caller's
        job (pre-substitute code 0 and patch afterwards).
        """
        if self._decode_each(len(codes)):
            get_str = self._backend.get_str
            handles = self.values.take(codes).tolist()
            return np.array([get_str(h) for h in handles], dtype=object)
        arr = self.values_array()
        if arr.size == 0:
            if self.dtype is DataType.STRING:
                return np.full(len(codes), None, dtype=object)
            return np.zeros(len(codes), dtype=arr.dtype)
        return np.take(arr, np.asarray(codes, dtype=np.int64))

    # ------------------------------------------------------------------
    # Order-aware lookups (power the code-space predicates)
    # ------------------------------------------------------------------

    def code_of(self, value) -> Optional[int]:
        """Exact code of ``value``, or None if absent."""
        pos = self.lower_bound(value)
        if pos < len(self) and self.value_of(pos) == value:
            return pos
        return None

    def code_range(
        self, low=None, high=None, include_low=True, include_high=True
    ) -> tuple[int, int]:
        """Codes ``[lo, hi)`` of the values in the range (codes follow
        value order; ``hi <= lo`` when none does)."""
        low, include_low = exact_bound(self.dtype, low, include_low, True)
        high, include_high = exact_bound(self.dtype, high, include_high, False)
        lo, hi = 0, len(self)
        if low is not None:
            lo = self.lower_bound(low) if include_low else self.upper_bound(low)
        if high is not None:
            hi = self.upper_bound(high) if include_high else self.lower_bound(high)
        return lo, hi

    def lower_bound(self, value) -> int:
        """First code whose value is >= ``value`` (== len when none)."""
        return int(np.searchsorted(self.values_array(), value, side="left"))

    def upper_bound(self, value) -> int:
        """First code whose value is > ``value`` (== len when none)."""
        return int(np.searchsorted(self.values_array(), value, side="right"))
