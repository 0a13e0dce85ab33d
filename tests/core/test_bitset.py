"""Unit and property tests for packed bitsets and Hamming scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import (
    PackedBitsets,
    hamming,
    mask_from_bits,
    pack_int,
    popcount,
    set_bits,
    unpack_int,
    words_needed,
)

masks = st.integers(min_value=0, max_value=(1 << 200) - 1)


class TestPrimitives:
    def test_words_needed(self):
        assert words_needed(0) == 1
        assert words_needed(64) == 1
        assert words_needed(65) == 2
        assert words_needed(200) == 4

    def test_pack_unpack_small(self):
        assert unpack_int(pack_int(0b1011, 1)) == 0b1011

    def test_pack_rejects_overflow(self):
        with pytest.raises(ValueError):
            pack_int(1 << 64, 1)

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b10110) == 3

    def test_hamming(self):
        assert hamming(0b1010, 0b0110) == 2
        assert hamming(5, 5) == 0

    def test_set_bits_roundtrip(self):
        assert mask_from_bits(set_bits(0b101001)) == 0b101001

    def test_mask_from_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            mask_from_bits([-1])


@settings(max_examples=80, deadline=None)
@given(mask=masks)
def test_pack_roundtrip_property(mask):
    assert unpack_int(pack_int(mask, 4)) == mask


@settings(max_examples=80, deadline=None)
@given(a=masks, b=masks)
def test_hamming_symmetry_and_identity(a, b):
    assert hamming(a, b) == hamming(b, a)
    assert hamming(a, a) == 0
    assert hamming(a, b) == popcount(a ^ b)


@settings(max_examples=50, deadline=None)
@given(a=masks, b=masks, c=masks)
def test_hamming_triangle_inequality(a, b, c):
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestPackedBitsets:
    def test_append_and_distances(self):
        bits = PackedBitsets(8)
        bits.extend([0b0001, 0b0011, 0b1111])
        dists = bits.distances_many([0b0001])[0]
        assert list(dists) == [0, 1, 3]

    def test_wide_masks(self):
        wide = (1 << 150) | 1
        bits = PackedBitsets(160, [wide])
        assert bits.distances_many([wide])[0, 0] == 0
        assert bits.distances_many([1])[0, 0] == 1
        assert bits.masks == [wide]

    def test_empty_distances(self):
        bits = PackedBitsets(8)
        assert bits.distances_many([0]).shape == (1, 0)


@settings(max_examples=40, deadline=None)
@given(pool=st.lists(masks, min_size=1, max_size=20), probe=masks)
def test_packed_distances_match_reference(pool, probe):
    bits = PackedBitsets(200, pool)
    expected = [hamming(probe, m) for m in pool]
    assert list(bits.distances_many([probe])[0]) == expected


class TestAmortizedGrowth:
    def test_append_grows_capacity_geometrically(self):
        bits = PackedBitsets(8)
        reallocations = 0
        buf = bits._buf
        for mask in range(1000):
            bits.append(mask)
            if bits._buf is not buf:
                reallocations += 1
                buf = bits._buf
        # Doubling from 16 → 1024 is 7 reallocations; a per-append vstack
        # would have done 1000.
        assert reallocations <= 8
        assert bits.masks == list(range(1000))
        assert list(bits.distances_many([0])[0]) == [popcount(m) for m in range(1000)]

    def test_rows_view_tracks_length(self):
        bits = PackedBitsets(8)
        bits.extend([1, 2, 3])
        assert bits.rows.shape == (3, 1)
        bits.append(4)
        assert bits.rows.shape == (4, 1)
        assert len(bits) == 4

    def test_interleaved_append_extend(self):
        bits = PackedBitsets(130)
        wide = 1 << 129
        bits.append(wide)
        bits.extend([1, 3])
        bits.append(wide | 1)
        assert bits.masks == [wide, 1, 3, wide | 1]
        assert [bits[i] for i in range(len(bits))] == bits.masks
        bits.masks.append(7)  # a copy: the stored rows do not change
        assert len(bits) == 4
        assert list(bits.distances_many([wide])[0]) == [0, 2, 3, 1]


class TestDistancesMany:
    def test_matches_per_mask_distances(self):
        pool = [0b0001, 0b0011, 0b1111, 0b1000]
        bits = PackedBitsets(8, pool)
        probes = [0b0000, 0b0001, 0b1111, 0b1010]
        many = bits.distances_many(probes)
        assert many.shape == (4, 4)
        for i, probe in enumerate(probes):
            assert list(many[i]) == list(bits.distances_many([probe])[0])

    def test_tall_batch_matches_reference(self):
        # A tall batch of wide probes must give the exact integer Hamming
        # distance, the same as the one-probe path.
        rng = np.random.default_rng(5)
        num_bits = 150
        pool = [int(rng.integers(0, 1 << 63)) | (1 << 149) for _ in range(90)]
        probes = [int(rng.integers(0, 1 << 63)) for _ in range(128)]
        bits = PackedBitsets(num_bits, pool)
        many = bits.distances_many(probes)
        for i, probe in enumerate(probes):
            assert list(many[i]) == [hamming(probe, m) for m in pool]

    def test_distances_track_growth(self):
        bits = PackedBitsets(8, [0b01, 0b10])
        probes = [0] * 70
        assert bits.distances_many(probes).shape == (70, 2)
        bits.append(0b11)
        many = bits.distances_many(probes)
        assert many.shape == (70, 3)
        assert list(many[0]) == [1, 1, 2]

    def test_empty_cases(self):
        bits = PackedBitsets(8, [1, 2])
        assert bits.distances_many([]).shape == (0, 2)
        assert PackedBitsets(8).distances_many([1]).shape == (1, 0)


@settings(max_examples=40, deadline=None)
@given(
    pool=st.lists(masks, min_size=1, max_size=12),
    probes=st.lists(masks, min_size=1, max_size=12),
)
def test_distances_many_matches_reference(pool, probes):
    bits = PackedBitsets(200, pool)
    many = bits.distances_many(probes)
    for i, probe in enumerate(probes):
        assert list(many[i]) == [hamming(probe, m) for m in pool]


class TestMaskedDistances:
    def test_masks_out_hidden_bits(self):
        bits = PackedBitsets(8, [0b1100, 0b0011])
        # Only the low two bits are visible: 0b1100 vs probe 0b0001 differs
        # in bit 0 alone once the high bits are hidden.
        assert list(bits.distances_many([0b0001], visible=0b0011)[0]) == [1, 1]

    def test_none_visible_equals_distances(self):
        bits = PackedBitsets(8, [0b1100, 0b0011])
        unmasked = list(bits.distances_many([0b0001])[0])
        assert list(bits.distances_many([0b0001], None)[0]) == unmasked
        assert list(bits.distances_many([0b0001], visible=~0)[0]) == unmasked

    def test_wide_visible_mask(self):
        wide = (1 << 150) | 0b1
        bits = PackedBitsets(160, [wide])
        assert bits.distances_many([0b1], visible=(1 << 150) - 1)[0, 0] == 0
        assert bits.distances_many([0b1], visible=wide)[0, 0] == 1

    def test_pickle_roundtrip(self):
        import pickle

        bits = PackedBitsets(8, [1, 2, 3])
        bits.distances_many([0] * 70)
        clone = pickle.loads(pickle.dumps(bits))
        assert clone.masks == bits.masks
        assert list(clone.distances_many([1])[0]) == list(bits.distances_many([1])[0])
