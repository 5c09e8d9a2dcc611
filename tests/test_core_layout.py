"""Unit tests for the LinearLayout core (repro.core.layout).

Includes the paper's running example: Layout A of Figure 1 / Table 1.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import cache
from repro.core import (
    DimensionError,
    LANE,
    LayoutError,
    LinearLayout,
    NonInvertibleLayoutError,
    REGISTER,
    WARP,
    make_identity,
)
from tests.layout_reference import apply_flat, transpose_ins, unflatten_out


def layout_a():
    """Figure 1(a): 16x16 tensor, 2x2 regs, 4x8 lanes, 2x1 warps.

    Built fastest-dim-first (dim1 = j is the fastest), matching the
    matrix displayed in Section 4.1.
    """
    return (
        make_identity([(2, REGISTER, "dim1"), (2, REGISTER, "dim0")])
        * make_identity([(8, LANE, "dim1"), (4, LANE, "dim0")])
        * make_identity([(2, WARP, "dim0")])
    )


class TestPaperExample:
    def test_table1_mappings(self):
        a = layout_a()
        cases = [
            # (reg, lane, warp) -> (i, j) rows of Table 1
            ((0, 0, 0), (0, 0)),
            ((1, 0, 0), (0, 1)),
            ((0, 1, 0), (0, 2)),
            ((1, 1, 0), (0, 3)),
            ((2, 0, 0), (1, 0)),
            ((3, 0, 0), (1, 1)),
            ((0, 9, 0), (2, 2)),
            ((1, 9, 0), (2, 3)),
            ((2, 9, 0), (3, 2)),
            ((3, 9, 0), (3, 3)),
        ]
        for (r, l, w), (i, j) in cases:
            out = a.apply({REGISTER: r, LANE: l, WARP: w})
            assert (out["dim0"], out["dim1"]) == (i, j), (r, l, w)

    def test_section41_worked_example(self):
        """r1 in t9 of w0 lands at (2, 3) = locw0 ^ loct9 ^ locr1."""
        a = layout_a()
        out = a.apply({REGISTER: 1, LANE: 9, WARP: 0})
        assert (out["dim0"], out["dim1"]) == (2, 3)

    def test_warp_offset(self):
        a = layout_a()
        out = a.apply({REGISTER: 0, LANE: 0, WARP: 1})
        assert (out["dim0"], out["dim1"]) == (8, 0)

    def test_bijective(self):
        a = layout_a()
        assert a.is_surjective()
        assert a.is_injective()
        assert a.is_invertible()

    def test_inverse_round_trip(self):
        a = layout_a()
        inv = a.invert()
        back = inv.apply({"dim0": 2, "dim1": 3})
        assert back == {REGISTER: 1, LANE: 9, WARP: 0}


class TestConstruction:
    def test_identity1d(self):
        l = LinearLayout.identity1d(8, REGISTER, "dim0")
        for v in range(8):
            assert l.apply({REGISTER: v})["dim0"] == v

    def test_zero_columns_broadcast(self):
        """Zero columns map every input to the origin (Section 5.1)."""
        l = LinearLayout({REGISTER: [(0,), (0,)]}, {"dim0": 1})
        for v in range(4):
            assert l.apply({REGISTER: v})["dim0"] == 0

    def test_from_flat_strided(self):
        l = LinearLayout.from_flat(
            {REGISTER: [4, 8]}, {"dim0": 16}, require_surjective=False
        )
        assert [l.apply({REGISTER: v})["dim0"] for v in range(4)] == [
            0, 4, 8, 12,
        ]

    def test_empty(self):
        e = LinearLayout.empty()
        assert e.total_in_bits() == 0
        assert e.total_out_bits() == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            LinearLayout({}, {"dim0": 3})

    def test_coordinate_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            LinearLayout({REGISTER: [(4,)]}, {"dim0": 4})

    def test_wrong_arity_rejected(self):
        with pytest.raises(DimensionError):
            LinearLayout({REGISTER: [(1, 1)]}, {"dim0": 2})

    def test_surjectivity_enforced(self):
        with pytest.raises(LayoutError):
            LinearLayout({REGISTER: [(0,)]}, {"dim0": 2})

    def test_surjectivity_opt_out(self):
        l = LinearLayout(
            {REGISTER: [(0,)]}, {"dim0": 2}, require_surjective=False
        )
        assert not l.is_surjective()


class TestApplication:
    def test_missing_dims_default_zero(self):
        a = layout_a()
        out = a.apply({REGISTER: 3})
        assert (out["dim0"], out["dim1"]) == (1, 1)

    def test_unknown_dim_rejected(self):
        with pytest.raises(DimensionError):
            layout_a().apply({"bogus": 1})

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            layout_a().apply({REGISTER: 4})

    def test_flat_table_row_major(self):
        # 2x4 layout: flat = i*4 + j.
        l = make_identity([(4, REGISTER, "dim1"), (2, REGISTER, "dim0")])
        l = l.transpose_outs(["dim0", "dim1"])
        assert l.flat_table([REGISTER])[0b101] == 0b101
        assert l.apply({REGISTER: 0b101}) == {"dim0": 1, "dim1": 1}

    def test_unflatten_round_trip(self):
        # Canonical out-dim order (dim0, dim1): row-major flattening.
        a = layout_a().transpose_outs(["dim0", "dim1"])
        for flat in (0, 1, 100, 255):
            coords = unflatten_out(a, flat)
            assert coords["dim0"] * 16 + coords["dim1"] == flat


class TestOperators:
    def test_product_block_diagonal(self):
        a = LinearLayout.identity1d(4, REGISTER, "dim0")
        b = LinearLayout.identity1d(2, LANE, "dim1")
        p = a * b
        assert (p.in_dims, p.in_dim_size(REGISTER), p.in_dim_size(LANE)) == (
            [REGISTER, LANE], 4, 2
        )
        assert p.out_dim_sizes() == {"dim0": 4, "dim1": 2}

    def test_product_shared_dims_shift(self):
        a = LinearLayout.identity1d(2, REGISTER, "dim0")
        b = LinearLayout.identity1d(4, REGISTER, "dim0")
        p = a * b
        assert p.in_dim_size(REGISTER) == 8
        assert p.out_dim_size("dim0") == 8
        # b's bits occupy the high positions of both spaces.
        assert p.apply({REGISTER: 0b010})["dim0"] == 0b010

    def test_compose(self):
        inner = LinearLayout.identity1d(4, REGISTER, "mid")
        outer = LinearLayout.from_flat(
            {"mid": [2, 4]}, {"dim0": 8}, require_surjective=False
        )
        c = outer.compose(inner)
        assert c.apply({REGISTER: 3})["dim0"] == 6

    def test_compose_dim_mismatch(self):
        inner = LinearLayout.identity1d(4, REGISTER, "x")
        outer = LinearLayout.identity1d(4, "y", "dim0")
        with pytest.raises(DimensionError):
            outer.compose(inner)

    def test_invert_requires_bijection(self):
        l = LinearLayout(
            {REGISTER: [(1,), (0,)]}, {"dim0": 2}, require_surjective=False
        )
        with pytest.raises(NonInvertibleLayoutError):
            l.invert()

    def test_right_inverse_of_broadcast(self):
        # Surjective but not injective: second register bit broadcasts.
        l = LinearLayout(
            {REGISTER: [(1,), (0,)]}, {"dim0": 2}, require_surjective=True
        )
        rinv = l.right_inverse()
        # The right inverse picks the canonical (free-bits-zero) owner.
        assert rinv.apply({"dim0": 1})[REGISTER] == 1

    def test_invert_and_compose_identity(self):
        a = layout_a()
        conv = a.invert_and_compose(a)
        for r, l, w in [(0, 0, 0), (3, 17, 1), (2, 9, 0)]:
            out = conv.apply({REGISTER: r, LANE: l, WARP: w})
            assert out == {REGISTER: r, LANE: l, WARP: w}

    def test_invert_and_compose_shape_mismatch(self):
        a = LinearLayout.identity1d(4, REGISTER, "dim0")
        b = LinearLayout.identity1d(8, REGISTER, "dim0")
        with pytest.raises(DimensionError):
            a.invert_and_compose(b)


class TestDimSurgery:
    def test_sublayout(self):
        a = layout_a()
        s = a.sublayout([REGISTER], ["dim1"])
        assert s.in_dims == [REGISTER]
        assert s.out_dims == ["dim1"]
        assert s.apply({REGISTER: 1})["dim1"] == 1

    def test_rename(self):
        a = LinearLayout.identity1d(4, REGISTER, "dim0")
        renamed = a.rename_out_dim("dim0", "off")
        assert renamed.out_dims == ["off"]
        assert renamed.apply({REGISTER: 3}) == {"off": 3}

    def test_rename_missing(self):
        a = LinearLayout.identity1d(4, REGISTER, "dim0")
        with pytest.raises(DimensionError):
            a.rename_out_dim("nope", "off")

    def test_transpose_outs(self):
        a = layout_a()
        t = a.transpose_outs(["dim1", "dim0"])
        out = t.apply({REGISTER: 1, LANE: 9, WARP: 0})
        assert (out["dim1"], out["dim0"]) == (3, 2)

    def test_resize_grow_adds_broadcast(self):
        a = LinearLayout.identity1d(2, REGISTER, "dim0")
        g = a.resize_in_dim(REGISTER, 8)
        assert g.in_dim_size(REGISTER) == 8
        assert g.apply({REGISTER: 0b110})["dim0"] == 0
        assert g.apply({REGISTER: 0b111})["dim0"] == 1

    def test_resize_shrink(self):
        a = LinearLayout.identity1d(8, REGISTER, "dim0")
        s = a.resize_in_dim(REGISTER, 2)
        assert s.in_dim_size(REGISTER) == 2


class TestFreeVariables:
    def test_zero_columns_detected(self):
        l = LinearLayout(
            {REGISTER: [(1,), (0,), (2,)]},
            {"dim0": 4},
            require_surjective=True,
        )
        assert l.free_variable_masks()[REGISTER] == 0b010

    def test_duplicate_column_is_free(self):
        l = LinearLayout(
            {REGISTER: [(1,), (1,)], LANE: [(2,)]},
            {"dim0": 4},
            require_surjective=True,
        )
        assert l.free_variable_masks()[REGISTER] == 0b10

    def test_equivalent_vs_equal(self):
        a = layout_a()
        assert a.equivalent(a)
        b = transpose_ins(a, [WARP, LANE, REGISTER])
        assert a.equivalent(b)
        assert a != b


@given(st.integers(0, 3), st.integers(0, 31), st.integers(0, 1))
@settings(max_examples=64, deadline=None)
def test_layout_a_linearity(r, l, w):
    """f(x ^ y) == f(x) ^ f(y) — the defining property."""
    a = layout_a()
    x = {REGISTER: r, LANE: l, WARP: w}
    y = {REGISTER: 3 - r, LANE: 31 - l, WARP: 1 - w}
    fx = a.apply(x)
    fy = a.apply(y)
    xy = {k: x[k] ^ y[k] for k in x}
    fxy = a.apply(xy)
    assert fxy == {k: fx[k] ^ fy[k] for k in fx}


@st.composite
def layout_specs(draw):
    """``(bases, out_dims)`` of any layout over 1-3 out dims."""
    out_logs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    out_dims = {f"dim{i}": 1 << log for i, log in enumerate(out_logs)}
    image = st.tuples(*[st.integers(0, size - 1) for size in out_dims.values()])
    in_dims = draw(
        st.lists(
            st.sampled_from([REGISTER, LANE, WARP, "block"]),
            unique=True,
            max_size=4,
        )
    )
    bases = {dim: draw(st.lists(image, max_size=3)) for dim in in_dims}
    return bases, out_dims


def random_layouts():
    """Any (not necessarily surjective) layout over 1-3 out dims."""
    return layout_specs().map(
        lambda spec: LinearLayout(*spec, require_surjective=False)
    )


@settings(max_examples=80, deadline=None)
@given(layout=random_layouts(), caching=st.booleans(), data=st.data())
def test_flat_basis_images_match_per_image_flattening(layout, caching, data):
    """Flat columns == apply_flat of each unit input, on and off cache."""
    order = data.draw(st.permutations(layout.out_dims))
    in_order = data.draw(st.permutations(layout.in_dims))
    with contextlib.nullcontext() if caching else cache.disabled():
        for _ in range(2):  # the second pass reads the memo
            for dim in (*layout.in_dims, "absent"):
                images = layout.bases.get(dim, [])
                for at in (None, order):
                    expected = [
                        apply_flat(layout, {dim: 1 << bit}, at)
                        for bit in range(len(images))
                    ]
                    got = layout.basis_images_flat(dim, at)
                    assert got == expected
                    got.append(-1)  # the caller owns the returned list
                    assert layout.basis_images_flat(dim, at) == expected
                    if at is None:
                        assert [
                            layout.basis_image_flat(dim, bit)
                            for bit in range(len(images))
                        ] == expected
            table = layout.flat_table(in_order).tolist()
            for index, value in enumerate(table):
                inputs = {}
                for dim in in_order:
                    bits = layout.in_dim_size_log2(dim)
                    inputs[dim] = index & ((1 << bits) - 1)
                    index >>= bits
                assert value == apply_flat(layout, inputs)
