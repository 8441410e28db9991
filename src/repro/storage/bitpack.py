"""Vectorised bit-packing for main-partition attribute vectors.

Hyrise stores main codes with ``ceil(log2(|dictionary|))`` bits each;
this module packs/unpacks uint32 code arrays into little-endian uint64
word streams. The word stream carries one zero pad word at the end so
unpacking never reads past the buffer.

64 codes fill exactly ``bits`` words, so code *j* of every group of 64
sits at the same word and bit offset: both directions map ``(groups, 64)``
codes to ``(groups, bits)`` words through one layout, :func:`_group_layout`.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_LANES = np.arange(64, dtype=_U64)


def bits_needed(max_code: int) -> int:
    """Bits required to represent codes ``0..max_code`` (min 1)."""
    if max_code < 0:
        raise ValueError("max_code must be >= 0")
    return max(1, int(max_code).bit_length())


@functools.cache
def _group_layout(bits: int) -> tuple:
    """Per lane of a 64-code group: its word and bit offset, and for the
    lanes that spill into the next word, the word and the shift."""
    if not 1 <= bits <= 32:
        raise ValueError(f"bits must be in [1, 32], got {bits}")
    start = _LANES * _U64(bits)
    word, offset = (start >> _U64(6)).astype(np.intp), start & _U64(63)
    spill = np.flatnonzero(offset + _U64(bits) > _U64(64))
    return word, offset, spill, word[spill], _U64(64) - offset[spill]


def pack(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack ``codes`` at ``bits`` bits each into a uint64 word array."""
    _, offset, spill, spill_word, spill_shift = _group_layout(bits)
    codes = np.asarray(codes, dtype=_U64)
    if codes.size and int(codes.max()) >= (1 << bits):
        raise ValueError(f"code {int(codes.max())} does not fit in {bits} bits")
    groups = -(-codes.size // 64)  # the last one padded with zero codes
    lanes = np.zeros((groups, 64), dtype=_U64)
    lanes.reshape(-1)[: codes.size] = codes
    words = np.zeros(groups * bits + 1, dtype=_U64)
    # A word's codes are contiguous: OR each run into its word, the run
    # starting at the first lane whose offset is below ``bits``.
    starts = np.flatnonzero(offset < _U64(bits))
    runs = np.bitwise_or.reduceat(lanes << offset, starts, axis=1)
    words[:-1].reshape(groups, bits)[:] = runs
    # A code straddling a word boundary spills its high bits into the
    # next word; at most one code spills into any word.
    words[1:].reshape(groups, bits)[:, spill_word] |= lanes[:, spill] >> spill_shift
    return words[: packed_word_count(codes.size, bits)]


def unpack(words: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack`: ``count`` uint32 codes, gathered a block
    of 512 groups at a time (small temporaries are memory the allocator
    hands back; whole-column ones are fresh pages, faulted in at every
    call); a tail of under 64 codes goes through :func:`unpack_at`."""
    word, offset, spill, spill_word, spill_shift = _group_layout(bits)
    words = np.asarray(words, dtype=_U64)
    mask = _U64((1 << bits) - 1)
    out = np.empty(count, dtype=np.uint32)
    groups = count // 64
    for lo in range(0, groups, 512):
        hi = min(lo + 512, groups)
        block = words[lo * bits : hi * bits + 1]  # + the pad or next word
        lanes = block[:-1].reshape(-1, bits)[:, word] >> offset
        lanes[:, spill] |= block[1:].reshape(-1, bits)[:, spill_word] << spill_shift
        lanes &= mask
        out[lo * 64 : hi * 64] = lanes.ravel()
    if groups * 64 < count:
        rows = _LANES[: count - groups * 64] + _U64(groups * 64)
        out[groups * 64 :] = unpack_at(words.__getitem__, bits, rows)
    return out


def unpack_at(fetch, bits: int, rows: np.ndarray) -> np.ndarray:
    """Codes at positions ``rows`` (below the packed count) as uint32.

    ``fetch(word_indices)`` returns the stream's words at those indices;
    only the words the requested codes start in, and the next ones, are fetched.
    """
    _group_layout(bits)  # rejects a width outside [1, 32]
    if len(rows) == 0:
        return np.empty(0, dtype=np.uint32)
    positions = np.asarray(rows, dtype=np.uint64) * _U64(bits)
    word_idx = positions >> _U64(6)
    offsets = positions & _U64(63)
    low = fetch(word_idx) >> offsets
    # A code that does not spill shifts the next word at least ``bits``
    # up, past its mask (63 at offset 0, where 64 would be undefined).
    high = fetch(word_idx + _U64(1)) << np.minimum(_U64(64) - offsets, _U64(63))
    mask = _U64((1 << bits) - 1)
    return ((low | high) & mask).astype(np.uint32)


def packed_word_count(count: int, bits: int) -> int:
    """Number of uint64 words :func:`pack` produces for ``count`` codes."""
    return (count * bits + 63) // 64 + 1
