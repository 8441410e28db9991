"""Unit tests for the bit-packing codec."""

import numpy as np
import pytest

from repro.storage import bitpack


class TestBitsNeeded:
    def test_minimum_one_bit(self):
        assert bitpack.bits_needed(0) == 1
        assert bitpack.bits_needed(1) == 1

    def test_powers_of_two(self):
        assert bitpack.bits_needed(2) == 2
        assert bitpack.bits_needed(3) == 2
        assert bitpack.bits_needed(4) == 3
        assert bitpack.bits_needed(255) == 8
        assert bitpack.bits_needed(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitpack.bits_needed(-1)


class TestRoundtrip:
    @pytest.mark.parametrize("bits", [1, 2, 3, 5, 7, 8, 11, 13, 16, 21, 31, 32])
    def test_random_codes(self, bits):
        rng = np.random.default_rng(bits)
        codes = rng.integers(0, 2**bits, size=777).astype(np.uint32)
        words = bitpack.pack(codes, bits)
        assert (bitpack.unpack(words, bits, 777) == codes).all()

    @pytest.mark.parametrize("count", [8191, 8192, 8193, 3 * 8192 + 5])
    @pytest.mark.parametrize("bits", [1, 13, 32])
    def test_across_unpack_blocks(self, bits, count):
        """A full unpack goes 8,192 codes at a time; every block edge,
        and a code straddling a word there, comes back intact."""
        rng = np.random.default_rng(count + bits)
        codes = rng.integers(0, 2**bits, size=count).astype(np.uint32)
        words = bitpack.pack(codes, bits)
        words.flags.writeable = False  # a main column's words, read in place
        assert (bitpack.unpack(words, bits, count) == codes).all()

    def test_empty(self):
        words = bitpack.pack(np.empty(0, dtype=np.uint32), 7)
        assert bitpack.unpack(words, 7, 0).size == 0

    def test_single_element(self):
        words = bitpack.pack(np.array([5], dtype=np.uint32), 3)
        assert list(bitpack.unpack(words, 3, 1)) == [5]

    def test_all_max_codes(self):
        codes = np.full(100, (1 << 13) - 1, dtype=np.uint32)
        words = bitpack.pack(codes, 13)
        assert (bitpack.unpack(words, 13, 100) == codes).all()

    def test_word_boundary_straddle(self):
        # 13-bit codes: code 4 straddles the first word boundary.
        codes = np.arange(10, dtype=np.uint32)
        words = bitpack.pack(codes, 13)
        assert list(bitpack.unpack(words, 13, 10)) == list(range(10))

    def test_code_too_large_rejected(self):
        with pytest.raises(ValueError):
            bitpack.pack(np.array([8], dtype=np.uint32), 3)

    @pytest.mark.parametrize("bits", [0, 33])
    def test_bad_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            bitpack.pack(np.array([0], dtype=np.uint32), bits)
        with pytest.raises(ValueError):
            bitpack.unpack(np.zeros(2, dtype=np.uint64), bits, 1)

    def test_compression_ratio(self):
        codes = np.zeros(6400, dtype=np.uint32)
        words = bitpack.pack(codes, 1)
        # 6400 codes at 1 bit = 100 words + 1 pad.
        assert words.size == 101

    def test_packed_word_count_matches(self):
        for count, bits in [(0, 5), (1, 1), (100, 13), (64, 32)]:
            codes = np.zeros(count, dtype=np.uint32)
            assert bitpack.pack(codes, bits).size == bitpack.packed_word_count(
                count, bits
            )
