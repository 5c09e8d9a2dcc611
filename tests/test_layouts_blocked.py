"""Tests for blocked layouts (Proposition 4.6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.vectorize import legacy_default_blocked
from repro.core import LANE, REGISTER, WARP
from repro.core.errors import DimensionError
from repro.core.properties import is_distributed_layout
from repro.layouts import BlockedLayout


class TestConstruction:
    def test_figure1_layout_a(self):
        """Figure 1(a) as a blocked layout descriptor."""
        desc = BlockedLayout((2, 2), (4, 8), (2, 1), (1, 0))
        layout = desc.to_linear((16, 16))
        out = layout.apply({REGISTER: 1, LANE: 9, WARP: 0})
        assert (out["dim0"], out["dim1"]) == (2, 3)

    def test_rank_validation(self):
        with pytest.raises(DimensionError):
            BlockedLayout((1,), (4, 8), (2, 2), (1, 0))

    def test_order_validation(self):
        with pytest.raises(DimensionError):
            BlockedLayout((1, 1), (4, 8), (2, 2), (0, 0))

    def test_power_of_two_validation(self):
        with pytest.raises(ValueError):
            BlockedLayout((3, 1), (4, 8), (2, 2), (1, 0))

    def test_num_warps(self):
        desc = BlockedLayout((2, 2), (4, 8), (2, 1), (1, 0))
        assert desc.num_warps() == 2


class TestTiling:
    def test_exact_tile(self):
        desc = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
        layout = desc.to_linear((8, 32))
        assert layout.in_dim_size(REGISTER) == 2
        assert is_distributed_layout(layout)
        assert layout.is_invertible()

    def test_replication_grows_registers(self):
        """A tensor larger than the tile wraps into extra registers."""
        desc = BlockedLayout((1, 1), (4, 8), (2, 2), (1, 0))
        layout = desc.to_linear((32, 64))
        # Tile is 8x16; tensor needs 4x4 = 16 replicas.
        assert layout.in_dim_size(REGISTER) == 16
        assert is_distributed_layout(layout)

    def test_broadcast_shrinks_to_tensor(self):
        """A tile larger than the tensor broadcasts (zero columns)."""
        desc = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
        layout = desc.to_linear((8, 16))
        assert layout.in_dim_size(WARP) == 4
        free = layout.free_variable_masks()
        assert free[WARP] != 0 or free[LANE] != 0
        assert is_distributed_layout(layout)

    def test_replication_order_follows_order(self):
        """Replicas walk the fastest dim first."""
        desc = BlockedLayout((1, 1), (8, 4), (4, 1), (1, 0))
        layout = desc.to_linear((32, 16))
        # Tile 32x4: replicas along dim1 (order[0] = 1) come first.
        assert layout.basis_image(REGISTER, 0) == (0, 4)
        assert layout.basis_image(REGISTER, 1) == (0, 8)

    def test_rank3(self):
        desc = BlockedLayout((1, 1, 2), (1, 4, 8), (2, 2, 1), (2, 1, 0))
        layout = desc.to_linear((4, 8, 16))
        assert is_distributed_layout(layout)
        assert layout.out_dim_sizes() == {
            "dim0": 4, "dim1": 8, "dim2": 16,
        }

    def test_shape_rank_mismatch(self):
        desc = BlockedLayout((1, 1), (4, 8), (2, 2), (1, 0))
        with pytest.raises(DimensionError):
            desc.to_linear((8, 8, 8))


class TestDefaultLayout:
    """The blocked layout legacy Triton assigns to a load or store."""

    def test_covers_shape(self):
        desc = legacy_default_blocked((128, 64), 16, num_warps=4)
        layout = desc.to_linear((128, 64))
        assert is_distributed_layout(layout)
        assert layout.total_out_size() == 128 * 64

    def test_threads_fill_fast_dim(self):
        desc = legacy_default_blocked((64, 64), 16)
        assert desc.threads_per_warp[1] >= desc.threads_per_warp[0]

    def test_1d(self):
        desc = legacy_default_blocked((4096,), 16, num_warps=4)
        layout = desc.to_linear((4096,))
        assert is_distributed_layout(layout)

    @given(
        st.sampled_from([16, 32, 64, 128, 256]),
        st.sampled_from([1, 2, 16, 64]),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([8, 16, 32]),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_distributed(self, rows, cols, warps, bits):
        desc = legacy_default_blocked((rows, cols), bits, num_warps=warps)
        layout = desc.to_linear((rows, cols))
        assert is_distributed_layout(layout)
        assert layout.total_out_size() == rows * cols
