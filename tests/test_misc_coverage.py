"""Edge-path tests across modules: dim utilities, layout plumbing,
plan validation, pricing of matrix instructions, and the
invert-and-compose algebra on random invertible layouts."""

import random

import pytest

from repro.core import (
    LANE,
    LinearLayout,
    REGISTER,
    WARP,
    canonical_dim_order,
    hardware_dims,
    make_identity,
    out_dim_names,
)
from repro.core.errors import DimensionError
from repro.program import MovR


class TestDimUtilities:
    def test_hardware_dims_order(self):
        assert hardware_dims() == ["register", "lane", "warp", "block"]

    def test_canonical_order(self):
        assert canonical_dim_order(["warp", "register"]) == [
            "register", "warp",
        ]
        assert canonical_dim_order(["offset", "lane"]) == [
            "lane", "offset",
        ]

    def test_out_dim_names(self):
        assert out_dim_names(3) == ["dim0", "dim1", "dim2"]
        assert out_dim_names(0) == []
        with pytest.raises(ValueError):
            out_dim_names(-1)


class TestLayoutPlumbing:
    def test_pretty_small(self):
        layout = make_identity([(4, REGISTER, "dim0")])
        text = layout.pretty()
        assert "{'register': 3}" in text

    def test_pretty_large_falls_back(self):
        layout = make_identity([(1 << 13, REGISTER, "dim0")])
        assert layout.pretty() == repr(layout)

    def test_transpose_ins(self):
        layout = make_identity(
            [(4, REGISTER, "dim0"), (2, LANE, "dim0")]
        )
        flipped = layout.transpose_ins([LANE, REGISTER])
        assert flipped.in_dims == [LANE, REGISTER]
        assert flipped.equivalent(layout)

    def test_transpose_ins_bad_order(self):
        layout = make_identity([(4, REGISTER, "dim0")])
        with pytest.raises(DimensionError):
            layout.transpose_ins([LANE])

    def test_trivially_injective(self):
        good = make_identity([(4, REGISTER, "dim0")])
        assert good.is_trivially_injective_in(REGISTER)
        bad = LinearLayout(
            {REGISTER: [(1,), (1,)], LANE: [(2,)]}, {"dim0": 4}
        )
        assert not bad.is_trivially_injective_in(REGISTER)

    def test_in_dim_size_of_missing_dim_is_one(self):
        layout = make_identity([(4, REGISTER, "dim0")])
        assert layout.in_dim_size(WARP) == 1

    def test_out_dim_missing_raises(self):
        layout = make_identity([(4, REGISTER, "dim0")])
        with pytest.raises(DimensionError):
            layout.out_dim_size("dim5")

    def test_concat_ins_conflicts(self):
        a = make_identity([(4, REGISTER, "dim0")])
        with pytest.raises(DimensionError):
            a.concat_ins(a)  # same input dim

    def test_sublayout_missing_dims(self):
        layout = make_identity([(4, REGISTER, "dim0")])
        with pytest.raises(DimensionError):
            layout.sublayout([LANE], ["dim0"])
        with pytest.raises(DimensionError):
            layout.sublayout([REGISTER], ["nope"])


class TestPlanValidation:
    def test_register_permute_rejects_negative(self):
        with pytest.raises(ValueError):
            MovR((0, -1), lanes=32, warps=4)


class TestMatrixInstructionPricing:
    def test_price_matches_machine_for_ldmatrix_plan(self):
        from repro.codegen.conversion import plan_conversion
        from repro.gpusim import Machine, distributed_data
        from repro.gpusim.opcost import price_program
        from repro.hardware import GH200
        from repro.layouts import (
            BlockedLayout, MmaOperandLayout, NvidiaMmaLayout,
            shared_layout_for_mma,
        )

        src = BlockedLayout((1, 8), (8, 4), (2, 2), (1, 0)).to_linear(
            (64, 64)
        )
        dst = MmaOperandLayout(NvidiaMmaLayout((2, 2)), 0, 2).to_linear(
            (64, 64)
        )
        mem = shared_layout_for_mma(16, (64, 64)).to_linear((64, 64))
        plan = plan_conversion(
            src, dst, 16, spec=GH200, memory_layout=mem
        )
        priced = price_program(plan.program, GH200).cycles()
        _, trace = Machine(GH200, 4).run_conversion(
            plan, distributed_data(src, 4, 32)
        )
        assert priced == pytest.approx(trace.cycles(), rel=0.3)


class TestInvertAndComposeAlgebra:
    @pytest.mark.parametrize("seed", range(8))
    def test_b_compose_conversion_recovers_a(self, seed):
        """B ∘ (B⁻¹ ∘ A) == A — the conversion's defining equation."""
        rng = random.Random(seed)
        bits = 8
        units = [1 << i for i in range(bits)]

        def random_layout():
            perm = list(units)
            rng.shuffle(perm)
            return LinearLayout(
                {
                    REGISTER: [(x,) for x in perm[:3]],
                    LANE: [(x,) for x in perm[3:7]],
                    WARP: [(x,) for x in perm[7:]],
                },
                {"dim0": 1 << bits},
            )

        a = random_layout()
        b = random_layout()
        conv = a.invert_and_compose(b)  # a -> b index map
        recovered = b.compose(conv)
        for _ in range(32):
            idx = {
                REGISTER: rng.randrange(8),
                LANE: rng.randrange(16),
                WARP: rng.randrange(2),
            }
            assert recovered.apply(idx) == a.apply(idx)
