"""Differential tests of the flat-column layout against brute force.

Every property is checked by enumerating the map through
:meth:`LinearLayout.apply` (or by span-table ranks), never through a
second implementation of the elimination.  Each runs with the
per-layout memo on and off.
"""

import contextlib
import itertools
import json

from hypothesis import given, settings, strategies as st

from repro import cache
from repro.core import LinearLayout
from tests.test_core_layout import layout_specs, random_layouts
from tests.test_f2_solve import brute_rank


def with_caching(caching, check):
    with contextlib.nullcontext() if caching else cache.disabled():
        for _ in range(2):  # the second pass reads the memo
            check()


def inputs_of(layout):
    dims = layout.in_dims
    for values in itertools.product(
        *[range(layout.in_dim_size(d)) for d in dims]
    ):
        yield dict(zip(dims, values))


def outputs_of(layout):
    dims = layout.out_dims
    for values in itertools.product(
        *[range(layout.out_dim_size(d)) for d in dims]
    ):
        yield dict(zip(dims, values))


def columns_of(layout):
    """``((dim, bit), flat column)`` in declaration order."""
    return [
        ((d, bit), v)
        for d in layout.in_dims
        for bit, v in enumerate(layout.basis_images_flat(d))
    ]


def pivots_of(layout):
    """Input bits whose column raises the rank of the columns before it."""
    cols = columns_of(layout)
    flat = [v for _, v in cols]
    return {
        at for j, (at, _) in enumerate(cols)
        if brute_rank(flat[: j + 1]) > brute_rank(flat[:j])
    }


def support(layout, in_dim, bit):
    """The ``(out_dim, bit)`` pairs set in one basis image."""
    image = dict(zip(layout.out_dims, layout.basis_image(in_dim, bit)))
    return {
        (d, k)
        for d, c in image.items()
        for k in range(c.bit_length())
        if c >> k & 1
    }


def surjective_over(out_dims, spec_bases):
    """A surjective layout: ``spec_bases`` then unit columns as ``pad``."""
    units = [
        tuple(1 << k if i == j else 0 for j in range(len(out_dims)))
        for i, size in enumerate(out_dims.values())
        for k in range(size.bit_length() - 1)
    ]
    return LinearLayout({**spec_bases, "pad": units}, out_dims)


@settings(max_examples=80, deadline=None)
@given(spec=layout_specs(), caching=st.booleans())
def test_bases_view_and_to_dict_round_trip(spec, caching):
    bases, out_dims = spec
    layout = LinearLayout(bases, out_dims, require_surjective=False)

    def check():
        assert layout.bases == {d: list(v) for d, v in bases.items()}
        assert layout.to_dict() == {
            "bases": {d: [list(img) for img in v] for d, v in bases.items()},
            "out_dims": out_dims,
        }
        assert LinearLayout.from_dict(layout.to_dict()) == layout

    with_caching(caching, check)


@settings(max_examples=80, deadline=None)
@given(a=random_layouts(), other=random_layouts(), data=st.data())
def test_eq_and_hash_agree_with_to_dict(a, other, data):
    b = data.draw(
        st.sampled_from(
            [
                other,
                LinearLayout.from_dict(a.to_dict()),
                a.transpose_ins(data.draw(st.permutations(a.in_dims))),
                a.transpose_outs(data.draw(st.permutations(a.out_dims))),
            ]
        )
    )
    same = json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert (a == b) == same
    assert (a.canonical_key() == b.canonical_key()) == same
    if same:
        assert hash(a) == hash(b)


@settings(max_examples=80, deadline=None)
@given(layout=random_layouts(), caching=st.booleans())
def test_injective_and_surjective_match_enumeration(layout, caching):
    images = {tuple(layout.apply(x).values()) for x in inputs_of(layout)}

    def check():
        assert layout.is_injective() == (len(images) == layout.total_in_size())
        assert layout.is_surjective() == (
            len(images) == layout.total_out_size()
        )

    with_caching(caching, check)


@settings(max_examples=80, deadline=None)
@given(layout=random_layouts(), caching=st.booleans())
def test_inverses_on_every_input_with_free_variables_zero(layout, caching):
    pivots = pivots_of(layout)

    def check():
        if not layout.is_surjective():
            return
        rinv = layout.right_inverse()
        for out in outputs_of(layout):
            assert layout.apply(rinv.apply(out)) == out
        for d in rinv.in_dims:
            for bit in range(rinv.in_dim_size_log2(d)):
                assert support(rinv, d, bit) <= pivots
        if layout.is_invertible():
            inv = layout.invert()
            assert inv == rinv
            for x in inputs_of(layout):
                assert inv.apply(layout.apply(x)) == x

    with_caching(caching, check)


@settings(max_examples=80, deadline=None)
@given(
    spec=layout_specs(),
    caching=st.booleans(),
    data=st.data(),
)
def test_invert_and_compose_on_every_input(spec, caching, data):
    bases, out_dims = spec
    src = LinearLayout(bases, out_dims, require_surjective=False)
    image = st.tuples(*[st.integers(0, s - 1) for s in out_dims.values()])
    dst = surjective_over(
        out_dims, {"lane": data.draw(st.lists(image, max_size=3))}
    )
    src = data.draw(
        st.sampled_from(
            [src, src.transpose_outs(list(reversed(src.out_dims)))]
        )
    )
    pivots = pivots_of(dst)

    def check():
        conv = src.invert_and_compose(dst)
        assert conv.out_dim_sizes() == dst.in_dim_sizes()
        for x in inputs_of(src):
            assert dst.apply(conv.apply(x)) == src.apply(x)
        for d in conv.in_dims:
            for bit in range(conv.in_dim_size_log2(d)):
                assert support(conv, d, bit) <= pivots

    with_caching(caching, check)


@settings(max_examples=80, deadline=None)
@given(layout=random_layouts(), caching=st.booleans())
def test_free_variable_masks_match_definition(layout, caching):
    cols = columns_of(layout)
    expected = {d: 0 for d in layout.in_dims}
    for j, ((d, bit), v) in enumerate(cols):
        earlier = [w for _, w in cols[:j]]
        if brute_rank(earlier + [v]) == brute_rank(earlier):
            expected[d] |= 1 << bit

    def check():
        assert layout.free_variable_masks() == expected

    with_caching(caching, check)
