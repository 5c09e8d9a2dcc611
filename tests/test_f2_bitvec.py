"""Unit tests for bit-vector primitives (repro.f2.bitvec)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.f2 import (
    bits_of,
    dot,
    is_power_of_two,
    log2_int,
    parity,
    popcount,
)
from repro.f2.bitvec import (
    highest_set_bit,
    iter_set_bits,
    lowest_set_bit,
    span_table,
)


class TestPopcountParity:
    def test_basics(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert parity(0b1011) == 1
        assert parity(0b11) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-1)

    @given(st.integers(0, 2 ** 64))
    @settings(max_examples=100)
    def test_parity_is_popcount_mod_2(self, x):
        assert parity(x) == popcount(x) % 2


class TestDot:
    def test_orthogonal(self):
        assert dot(0b01, 0b10) == 0

    def test_overlap(self):
        assert dot(0b11, 0b01) == 1
        assert dot(0b11, 0b11) == 0  # two overlaps cancel mod 2

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=100)
    def test_bilinear(self, a, b, c):
        assert dot(a ^ b, c) == dot(a, c) ^ dot(b, c)


class TestBitsOf:
    def test_lsb_first(self):
        assert bits_of(0b0110, 4) == [0, 1, 1, 0]

    def test_width_check(self):
        with pytest.raises(ValueError):
            bits_of(16, 4)

    @given(st.integers(0, 255))
    @settings(max_examples=50)
    def test_round_trip(self, x):
        bits = bits_of(x, 8)
        assert sum(b << i for i, b in enumerate(bits)) == x


class TestPowersOfTwo:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    def test_log2_int(self):
        assert log2_int(1) == 0
        assert log2_int(64) == 6
        with pytest.raises(ValueError):
            log2_int(48)
        with pytest.raises(ValueError):
            log2_int(0)


class TestBitScans:
    def test_iter_set_bits(self):
        assert list(iter_set_bits(0b10110)) == [1, 2, 4]
        assert list(iter_set_bits(0)) == []

    def test_lowest_highest(self):
        assert lowest_set_bit(0b1100) == 2
        assert highest_set_bit(0b1100) == 3
        assert lowest_set_bit(0) == -1
        assert highest_set_bit(0) == -1

    @given(st.integers(1, 2 ** 32))
    @settings(max_examples=50)
    def test_scan_consistency(self, x):
        bits = list(iter_set_bits(x))
        assert bits[0] == lowest_set_bit(x)
        assert bits[-1] == highest_set_bit(x)
        assert len(bits) == popcount(x)


class TestSpanTable:
    @given(st.lists(st.integers(0, 2 ** 40), max_size=8))
    @settings(max_examples=50)
    def test_entry_is_xor_of_selected_images(self, images):
        table = span_table(images)
        assert table.dtype.name == "int64"
        assert len(table) == 1 << len(images)
        for m, got in enumerate(table.tolist()):
            want = 0
            for i in iter_set_bits(m):
                want ^= images[i]
            assert got == want

    def test_rows_combine_elementwise(self):
        table = span_table([[1, 0, 4], [0, 2, 4]])
        assert table.tolist() == [[0, 0, 0], [1, 0, 4], [0, 2, 4], [1, 2, 0]]

    def test_empty_basis_spans_zero(self):
        assert span_table([]).tolist() == [0]

