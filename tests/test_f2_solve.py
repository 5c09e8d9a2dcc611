"""Unit and property tests for F2 elimination (repro.f2.solve).

Matrices are column lists.  The oracles are brute force: ranks come
from counting the distinct entries of the span table, pivots from
where the rank of a column prefix grows.  No matrix class is involved.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.f2 import InconsistentSystemError, XorBasis, kernel_basis, rank
from repro.f2.bitvec import iter_set_bits, span_table


@st.composite
def matrices(draw, max_rows=10, max_cols=12):
    """``(rows, columns)`` with zero and repeated columns mixed in."""
    rows = draw(st.integers(1, max_rows))
    columns = []
    for _ in range(draw(st.integers(0, max_cols))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            columns.append(0)
        elif kind == "repeat" and columns:
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append(draw(st.integers(0, (1 << rows) - 1)))
    return rows, columns


def matvec(columns, x):
    out = 0
    for j in iter_set_bits(x):
        out ^= columns[j]
    return out


def brute_rank(columns):
    return len(np.unique(span_table(columns))).bit_length() - 1


def brute_pivots(columns):
    """Column ``j`` is a pivot iff it raises the rank of ``0..j``."""
    return {
        j for j in range(len(columns))
        if brute_rank(columns[: j + 1]) > brute_rank(columns[:j])
    }


def transpose(rows, columns):
    return [
        sum(((c >> i) & 1) << j for j, c in enumerate(columns))
        for i in range(rows)
    ]


class TestRank:
    def test_zero_matrix(self):
        assert rank([0, 0, 0]) == 0

    def test_full_rank(self):
        assert rank([1 << i for i in range(5)]) == 5

    @given(matrices())
    @settings(max_examples=150)
    def test_rank_is_log2_of_span_size(self, m):
        _, columns = m
        assert rank(columns) == brute_rank(columns)

    @given(matrices())
    @settings(max_examples=100)
    def test_rank_bounded(self, m):
        rows, columns = m
        assert 0 <= rank(columns) <= min(rows, len(columns))

    @given(matrices())
    @settings(max_examples=100)
    def test_rank_transpose_invariant(self, m):
        rows, columns = m
        assert rank(columns) == rank(transpose(rows, columns))


class TestKernel:
    @given(matrices())
    @settings(max_examples=150)
    def test_kernel_vectors_annihilate(self, m):
        _, columns = m
        kernel = kernel_basis(columns)
        for v in kernel:
            assert v != 0
            assert matvec(columns, v) == 0
        assert brute_rank(kernel) == len(kernel)

    @given(matrices())
    @settings(max_examples=100)
    def test_rank_nullity(self, m):
        _, columns = m
        assert rank(columns) + len(kernel_basis(columns)) == len(columns)

    def test_repeated_column(self):
        assert kernel_basis([0b01, 0b01, 0b10]) == [0b011]


class TestSolve:
    def test_simple_system(self):
        columns = [0b01, 0b11]
        x = XorBasis(columns).solve(0b10)
        assert matvec(columns, x) == 0b10

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError):
            XorBasis([0b01]).solve(0b10)  # image is span{e0}

    @given(matrices(), st.integers(0, 2 ** 12 - 1))
    @settings(max_examples=150)
    def test_solution_validity(self, m, seed):
        _, columns = m
        b = matvec(columns, seed % (1 << len(columns)))
        x = XorBasis(columns).solve(b)
        assert matvec(columns, x) == b
        assert set(iter_set_bits(x)) <= brute_pivots(columns)

    @given(matrices(), st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=150)
    def test_outside_the_span_raises(self, m, b):
        rows, columns = m
        b %= 1 << rows
        if b in set(span_table(columns).tolist()):
            return
        with pytest.raises(InconsistentSystemError):
            XorBasis(columns).solve(b)

    @given(matrices(), st.data())
    @settings(max_examples=100)
    def test_labels_relabel_the_solution(self, m, data):
        _, columns = m
        labels = data.draw(st.permutations(range(len(columns))))
        b = matvec(columns, data.draw(st.integers(0, (1 << len(columns)) - 1)))
        plain = XorBasis(columns).solve(b)
        relabeled = XorBasis(columns, [1 << p for p in labels]).solve(b)
        assert relabeled == sum(1 << labels[j] for j in iter_set_bits(plain))
