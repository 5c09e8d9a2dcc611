"""Unit tests for bit-vector primitives (repro.f2.bitvec)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.f2 import is_power_of_two, log2_int, popcount
from repro.f2.bitvec import iter_set_bits, span_table


class TestPopcountParity:
    def test_basics(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-1)


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

    @given(st.integers(1, 2 ** 32))
    @settings(max_examples=50)
    def test_scan_consistency(self, x):
        bits = list(iter_set_bits(x))
        assert sum(1 << b for b in bits) == x
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

