"""Unit tests for the bit-packing codec."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nvm.pool import PMemPool
from repro.nvm.pvector import PVector
from repro.storage import bitpack

from tests.conftest import SMALL_EXTENT


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


# Main words are durable (on NVM, and in checkpoints): the packed format
# is fixed to the bit. Each digest covers ``pack`` of seeded codes at
# every count in ``_PINNED_COUNTS``, concatenated.
_PINNED_COUNTS = (0, 1, 63, 64, 65, 4099)
_PINNED_SHA256 = {
    1: "8cef0922e42e342998863bf8ea1de20ac93b6acf3253e61329097f4fb7c66e70",
    6: "3e251e57206ca9573e8455f48862b5826876bb39ca00c5a892c76809b5d6817c",
    17: "fe3130b9d685ba60df7b57254c3345ca9158562c3633181e1198771f0cccd359",
    31: "e32a51b00d3b3fb11ada20dc6915f4d7a88f72e9cc5392c0c798d4b2cca779d6",
    32: "f30ff5ba6f1739c7f91c70f195551c56908b23057a52f3b209fcd2deda3a4b37",
}


class TestPackedFormat:
    @pytest.mark.parametrize("bits", sorted(_PINNED_SHA256))
    def test_pack_output_is_pinned(self, bits):
        digest = hashlib.sha256()
        for count in _PINNED_COUNTS:
            rng = np.random.default_rng([bits, count])
            codes = rng.integers(0, 2**bits, size=count).astype(np.uint32)
            words = bitpack.pack(codes, bits)
            assert words.size == bitpack.packed_word_count(count, bits)
            digest.update(words.tobytes())
        assert digest.hexdigest() == _PINNED_SHA256[bits]

    @given(data=st.data(), bits=st.integers(1, 32), count=st.integers(0, 300))
    def test_round_trip_through_unpack_and_unpack_at(self, data, bits, count):
        codes = np.asarray(
            data.draw(st.lists(st.integers(0, 2**bits - 1), min_size=count, max_size=count)),
            dtype=np.uint32,
        )
        words = bitpack.pack(codes, bits)
        np.testing.assert_array_equal(bitpack.unpack(words, bits, count), codes)
        rows = np.asarray(
            data.draw(st.lists(st.integers(0, max(count - 1, 0)), max_size=20))
            if count
            else [],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(
            bitpack.unpack_at(words.__getitem__, bits, rows), codes[rows]
        )


@pytest.fixture(scope="module")
def module_pool(tmp_path_factory):
    pool = PMemPool.create(
        str(tmp_path_factory.mktemp("pool")), extent_size=SMALL_EXTENT
    )
    yield pool
    pool.close()


class TestGroupKernel:
    """``unpack`` reads whole 64-code groups (``bits`` words each) and
    sends a shorter tail through ``unpack_at``: both agree with ``pack``
    at every width and around every group edge, whatever holds the words."""

    @settings(max_examples=150, deadline=None)
    @given(
        bits=st.integers(1, 32),
        count=st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129, 4097])
        | st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
        top=st.booleans(),
        chunk=st.integers(1, 9),
    )
    def test_unpack_is_pack_inverse_and_unpack_at(
        self, module_pool, bits, count, seed, top, chunk
    ):
        rng = np.random.default_rng(seed)
        low = (1 << bits) - 1 if top else 0  # all-ones codes set every bit
        codes = rng.integers(low, 2**bits, size=count).astype(np.uint32)
        words = bitpack.pack(codes, bits)
        stored = PVector.create(module_pool, np.uint64, chunk_capacity=chunk)
        stored.extend(words)
        through_chunks = stored.view()  # a copy over the chunks, read-only
        assert not through_chunks.flags.writeable
        rows = np.arange(count)
        for source in (words, through_chunks):
            np.testing.assert_array_equal(bitpack.unpack(source, bits, count), codes)
        np.testing.assert_array_equal(
            bitpack.unpack_at(stored.take, bits, rows), codes
        )
