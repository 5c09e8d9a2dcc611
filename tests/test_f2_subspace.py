"""Unit and property tests for subspace algebra (repro.f2.subspace)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.f2 import Subspace, reduce_to_basis
from repro.f2.bitvec import span_table

vectors = st.lists(st.integers(0, 255), min_size=0, max_size=6)


def contains(subspace, v, dim=8):
    return Subspace(dim, list(subspace.basis) + [v]).rank == subspace.rank


class TestReduceToBasis:
    def test_removes_dependent(self):
        assert reduce_to_basis([1, 2, 3]) == [1, 2]

    def test_keeps_original_vectors(self):
        basis = reduce_to_basis([6, 5, 3])
        assert basis[0] == 6 and basis[1] == 5

    def test_drops_zero(self):
        assert reduce_to_basis([0, 1]) == [1]

    @given(vectors)
    @settings(max_examples=100)
    def test_result_independent(self, vs):
        basis = reduce_to_basis(vs)
        assert len(reduce_to_basis(basis)) == len(basis)

    @given(vectors)
    @settings(max_examples=100)
    def test_same_span(self, vs):
        basis = reduce_to_basis(vs)
        s1 = Subspace(8, vs)
        s2 = Subspace(8, basis)
        assert s1 == s2


class TestSubspace:
    def test_rank(self):
        assert Subspace(5, [1 << i for i in range(5)]).rank == 5
        assert Subspace(5).rank == 0
        assert Subspace(4, [0b0011, 0b0101, 0b0110]).rank == 2

    def test_vector_out_of_ambient(self):
        with pytest.raises(ValueError):
            Subspace(2, [4])

    def test_paper_figure4_span(self):
        """The span(G) computation from Figure 4's worked example."""
        elems = sorted(span_table([0b110, 0b011]).tolist())
        assert elems == [0b000, 0b011, 0b101, 0b110]
        assert Subspace(3, [0b110, 0b011]).rank == 2

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Subspace(2, [1]).intersect(Subspace(3, [1]))


class TestIntersection:
    def test_disjoint(self):
        a = Subspace(4, [0b0001, 0b0010])
        b = Subspace(4, [0b0100, 0b1000])
        assert a.intersect(b).rank == 0
        assert a.trivial_intersection(b)

    def test_overlap(self):
        a = Subspace(4, [0b0001, 0b0010])
        b = Subspace(4, [0b0010, 0b0100])
        inter = a.intersect(b)
        assert inter.basis == (0b0010,)

    def test_nontrivial_combination(self):
        # span{0011, 0100} and span{0111, 1000} share 0111 = 0011^0100.
        a = Subspace(4, [0b0011, 0b0100])
        b = Subspace(4, [0b0111, 0b1000])
        inter = a.intersect(b)
        assert inter.basis == (0b0111,)

    @given(vectors, vectors)
    @settings(max_examples=100)
    def test_intersection_contained_in_both(self, va, vb):
        a = Subspace(8, va)
        b = Subspace(8, vb)
        for v in a.intersect(b).basis:
            assert contains(a, v)
            assert contains(b, v)

    @given(vectors, vectors)
    @settings(max_examples=100)
    def test_dimension_formula(self, va, vb):
        a = Subspace(8, va)
        b = Subspace(8, vb)
        total = Subspace(8, va + vb)
        assert total.rank + a.intersect(b).rank == a.rank + b.rank


class TestComplementExtend:
    @given(vectors)
    @settings(max_examples=100)
    def test_complement_properties(self, vs):
        s = Subspace(8, vs)
        c = s.complement()
        assert Subspace(8, list(s.basis) + list(c.basis)).rank == 8
        assert s.intersect(c).rank == 0

    def test_complement_uses_unit_vectors(self):
        comp = Subspace(4, [0b0011, 0b0101]).complement()
        assert comp.basis == (0b0001, 0b1000)
