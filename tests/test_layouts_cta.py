"""Tests for CGA-level (block dimension) layouts."""

import pytest

from repro.codegen import classify_conversion, plan_conversion
from repro.core import BLOCK, LANE, REGISTER, WARP
from repro.core.errors import DimensionError, LayoutError
from repro.core.properties import is_distributed_layout
from repro.layouts import BlockedLayout, CtaLayout, same_block_component
from repro.layouts.sliced import slice_linear_layout


def clustered_layout(split=(2, 1), cga=(2, 1)):
    return BlockedLayout(
        (1, 2), (4, 8), (2, 2), (1, 0),
        cta=CtaLayout(cga, split, (1, 0)),
    )


class TestCtaLayout:
    def test_validation(self):
        with pytest.raises(DimensionError):
            CtaLayout((2,), (2, 2), (0, 1))
        with pytest.raises(DimensionError):
            CtaLayout((2, 2), (4, 1), (1, 0))  # split > cga
        with pytest.raises(DimensionError):
            CtaLayout((2, 2), (2, 2), (0, 0))

    def test_single(self):
        assert CtaLayout((1, 1), (1, 1), (1, 0)).is_trivial()
        assert not CtaLayout((2, 2), (2, 1), (1, 0)).is_trivial()

    def test_split_shape(self):
        cta = CtaLayout((2, 2), (2, 1), (1, 0))
        assert cta.split_shape((32, 64)) == [16, 64]
        with pytest.raises(DimensionError):
            cta.split_shape((3, 64))


class TestLiftedLayouts:
    def test_block_dim_appears(self):
        layout = clustered_layout().to_linear((32, 32))
        assert layout.has_in_dim(BLOCK)
        assert layout.in_dim_size(BLOCK) == 2
        assert is_distributed_layout(layout)

    def test_block_indexes_high_bits(self):
        layout = clustered_layout().to_linear((32, 32))
        base = layout.apply({REGISTER: 0, LANE: 0, WARP: 0, BLOCK: 0})
        other = layout.apply({REGISTER: 0, LANE: 0, WARP: 0, BLOCK: 1})
        assert other["dim0"] == base["dim0"] + 16

    def test_duplicate_ctas_broadcast(self):
        layout = clustered_layout(split=(1, 1), cga=(2, 1)).to_linear(
            (16, 32)
        )
        free = layout.free_variable_masks()
        assert free[BLOCK] == 0b1
        assert is_distributed_layout(layout)

    def test_trivial_cta_is_plain_blocked(self):
        plain = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
        with_cta = BlockedLayout(
            (1, 2), (4, 8), (2, 2), (1, 0), cta=CtaLayout((1, 1), (1, 1), (1, 0))
        )
        assert plain.to_linear((16, 32)) == with_cta.to_linear((16, 32))

    def test_slice_keeps_block(self):
        layout = clustered_layout().to_linear((32, 32))
        sliced = slice_linear_layout(layout, 1)
        assert sliced.has_in_dim(BLOCK)
        assert sliced.is_surjective()


class TestCrossCtaConversions:
    def test_same_block_component_ok(self):
        a = clustered_layout().to_linear((32, 32))
        b = BlockedLayout(
            (2, 1), (8, 4), (2, 2), (1, 0),
            cta=CtaLayout((2, 1), (2, 1), (1, 0)),
        ).to_linear((32, 32))
        assert same_block_component(a, b)
        plan = plan_conversion(a, b, 16)
        assert plan.kind in ("shuffle", "shared", "register")
        # The plan operates on the per-CTA quotient, which the
        # machine can execute and verify end to end.
        from repro.gpusim import Machine, distributed_data
        from repro.gpusim.registers import assert_matches_layout
        from repro.hardware import RTX4090
        from repro.layouts.cta import strip_block

        src_q, dst_q = strip_block(a), strip_block(b)
        registers = distributed_data(src_q, 4, 32)
        converted, _ = Machine(RTX4090, 4).run_conversion(
            plan, registers
        )
        assert_matches_layout(converted, dst_q)

    def test_strip_block_shapes(self):
        from repro.layouts.cta import strip_block

        layout = clustered_layout().to_linear((32, 32))
        quotient = strip_block(layout)
        assert not quotient.has_in_dim(BLOCK)
        assert quotient.out_dim_sizes() == {"dim0": 16, "dim1": 32}

    def test_strip_block_noop_without_block(self):
        from repro.layouts.cta import strip_block

        layout = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        assert strip_block(layout) is layout

    def test_cross_cta_rejected(self):
        a = BlockedLayout(
            (1, 2), (4, 8), (2, 2), (1, 0),
            cta=CtaLayout((2, 1), (2, 1), (1, 0)),
        ).to_linear((32, 32))
        b = BlockedLayout(
            (1, 2), (4, 8), (2, 2), (1, 0),
            cta=CtaLayout((1, 2), (1, 2), (1, 0)),
        ).to_linear((32, 32))
        assert not same_block_component(a, b)
        with pytest.raises(LayoutError):
            plan_conversion(a, b, 16)

    def test_legacy_layouts_have_empty_block(self):
        a = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        b = BlockedLayout((2, 1), (8, 4), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        assert same_block_component(a, b)
