"""Vectorised bit-packing for main-partition attribute vectors.

Hyrise stores main codes with ``ceil(log2(|dictionary|))`` bits each;
this module packs/unpacks uint32 code arrays into little-endian uint64
word streams. The word stream carries one zero pad word at the end so
unpacking never reads past the buffer.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64


def bits_needed(max_code: int) -> int:
    """Bits required to represent codes ``0..max_code`` (min 1)."""
    if max_code < 0:
        raise ValueError("max_code must be >= 0")
    return max(1, int(max_code).bit_length())


def pack(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack ``codes`` at ``bits`` bits each into a uint64 word array."""
    if not 1 <= bits <= 32:
        raise ValueError(f"bits must be in [1, 32], got {bits}")
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.size and int(codes.max()) >= (1 << bits):
        raise ValueError(f"code {int(codes.max())} does not fit in {bits} bits")
    count = codes.size
    total_bits = count * bits
    n_words = (total_bits + 63) // 64 + 1  # +1 pad word
    words = np.zeros(n_words, dtype=_U64)
    if count == 0:
        return words
    positions = np.arange(count, dtype=np.uint64) * _U64(bits)
    word_idx = positions >> _U64(6)
    offsets = positions & _U64(63)
    # A word's codes are contiguous: OR each run into its word, the run
    # starting at the first code whose offset is below ``bits``.
    starts = np.flatnonzero(offsets < _U64(bits))
    words[word_idx[starts]] = np.bitwise_or.reduceat(codes << offsets, starts)
    # A code straddling a word boundary spills its high bits into the
    # next word; at most one code spills into any word.
    spill = (offsets + _U64(bits)) > _U64(64)
    if spill.any():
        high = codes[spill] >> (_U64(64) - offsets[spill])
        words[word_idx[spill] + _U64(1)] |= high
    return words


def unpack(words: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack`: ``count`` uint32 codes, 8,192 at a time
    (small temporaries are memory the allocator hands back every block;
    whole-column ones are fresh pages, faulted in at every call)."""
    words = np.asarray(words, dtype=_U64)
    out = np.empty(count, dtype=np.uint32)
    for lo in range(0, count, 8192):
        rows = np.arange(lo, min(lo + 8192, count), dtype=np.uint64)
        out[lo : lo + rows.size] = unpack_at(words.__getitem__, bits, rows)
    return out


def unpack_at(fetch, bits: int, rows: np.ndarray) -> np.ndarray:
    """Codes at positions ``rows`` (below the packed count) as uint32.

    ``fetch(word_indices)`` returns the stream's words at those indices;
    only the words the requested codes live in are fetched.
    """
    if not 1 <= bits <= 32:
        raise ValueError(f"bits must be in [1, 32], got {bits}")
    if len(rows) == 0:
        return np.empty(0, dtype=np.uint32)
    positions = np.asarray(rows, dtype=np.uint64) * _U64(bits)
    word_idx = positions >> _U64(6)
    offsets = positions & _U64(63)
    low = fetch(word_idx) >> offsets
    shift_back = _U64(64) - offsets
    # offset 0 would shift by 64 (undefined); those codes never spill.
    safe_shift = np.where(offsets == 0, _U64(1), shift_back)
    high = np.where(
        offsets + _U64(bits) > _U64(64),
        fetch(word_idx + _U64(1)) << safe_shift,
        _U64(0),
    )
    mask = _U64((1 << bits) - 1)
    return ((low | high) & mask).astype(np.uint32)


def packed_word_count(count: int, bits: int) -> int:
    """Number of uint64 words :func:`pack` produces for ``count`` codes."""
    return (count * bits + 63) // 64 + 1
