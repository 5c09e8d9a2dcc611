"""Tests for the mixed-precision codecs (repro.mxfp)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.mxfp import (
    BF16,
    F16,
    F32,
    F64,
    F8E4M3,
    F8E5M2,
    I8,
    MXFP4,
    MxfpTensor,
    decode_fp4_e2m1,
    decode_fp8,
    decode_mxfp4,
    dtype_by_name,
    encode_bf16,
    encode_fp4_e2m1,
    encode_fp8,
    encode_mxfp4,
    mma_kwidth,
    quantize_to,
)
from repro.mxfp.emulate import compute_precision, emulated_matmul
from repro.mxfp.quantize import MXFP4_GROUP
from repro.mxfp.shuffle_opt import (
    analyze_pair,
    fragment_positions,
    preshuffle_operand,
    unshuffle_operand,
)


class TestDTypeRegistry:
    def test_lookup(self):
        assert dtype_by_name("f16") is F16
        assert dtype_by_name("f8") is F8E5M2
        with pytest.raises(KeyError):
            dtype_by_name("f4")

    def test_kwidth(self):
        assert mma_kwidth(F16) == 2
        assert mma_kwidth(F8E5M2) == 4
        assert mma_kwidth(MXFP4) == 8
        assert mma_kwidth(F32) == 1
        assert mma_kwidth(F64) == 1

    def test_bytes(self):
        assert F16.bytes == 2
        assert MXFP4.bytes == 1  # floor; packing handled separately


class TestFp8:
    @pytest.mark.parametrize("dtype", [F8E4M3, F8E5M2])
    def test_exact_values_round_trip(self, dtype):
        values = np.array([0.0, 1.0, -1.0, 0.5, 2.0, -4.0, 0.25])
        codes = encode_fp8(values, dtype)
        decoded = decode_fp8(codes, dtype)
        assert np.array_equal(decoded, values)

    @pytest.mark.parametrize("dtype", [F8E4M3, F8E5M2])
    def test_idempotent(self, dtype):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(256) * 10
        once = decode_fp8(encode_fp8(values, dtype), dtype)
        twice = decode_fp8(encode_fp8(once, dtype), dtype)
        assert np.array_equal(once, twice)

    def test_saturation(self):
        assert decode_fp8(encode_fp8(np.array([1e6]), F8E4M3), F8E4M3)[0] == 448.0
        assert decode_fp8(
            encode_fp8(np.array([1e9]), F8E5M2), F8E5M2
        )[0] == 57344.0

    def test_sign_preserved(self):
        values = np.array([-0.75, 0.75])
        decoded = decode_fp8(encode_fp8(values, F8E5M2), F8E5M2)
        assert decoded[0] == -decoded[1]

    @given(hnp.arrays(np.float64, 32,
                      elements=st.floats(-400, 400, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_relative_error_bound(self, values):
        decoded = decode_fp8(encode_fp8(values, F8E4M3), F8E4M3)
        big = np.abs(values) > 2 ** -6
        # e4m3 has 3 mantissa bits: relative error < 2^-3 on normals.
        rel = np.abs(decoded[big] - values[big]) / np.abs(values[big])
        assert np.all(rel <= 0.125 + 1e-9)


class TestBf16:
    def test_truncation(self):
        values = np.array([1.0, 3.140625, -2.5], dtype=np.float32)
        encoded = encode_bf16(values)
        bits = encoded.view(np.uint32)
        assert np.all(bits & 0xFFFF == 0)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(128).astype(np.float32)
        once = encode_bf16(values)
        assert np.array_equal(encode_bf16(once), once)


class TestFp4Mxfp4:
    def test_grid_values_exact(self):
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0,
                         -0.5, -6.0])
        decoded = decode_fp4_e2m1(encode_fp4_e2m1(grid))
        assert np.array_equal(decoded, grid)

    def test_rounding_to_grid(self):
        decoded = decode_fp4_e2m1(encode_fp4_e2m1(np.array([5.4, 0.7])))
        assert decoded[0] in (4.0, 6.0)
        assert decoded[1] in (0.5, 1.0)

    def test_mxfp4_group_scaling(self):
        """Values far outside [0, 6] come back via the shared scale."""
        values = np.full((1, MXFP4_GROUP), 48.0)
        tensor = encode_mxfp4(values)
        decoded = decode_mxfp4(tensor)
        assert np.allclose(decoded, values)

    def test_mxfp4_group_independence(self):
        values = np.concatenate(
            [np.full(MXFP4_GROUP, 100.0), np.full(MXFP4_GROUP, 0.01)]
        )[None, :]
        tensor = encode_mxfp4(values)
        assert tensor.scales.shape == (1, 2)
        assert tensor.scales[0, 0] != tensor.scales[0, 1]
        decoded = decode_mxfp4(tensor)
        assert np.allclose(decoded[0, :32], 100.0, rtol=0.2)
        assert np.allclose(decoded[0, 32:], 0.01, rtol=0.2)

    def test_mxfp4_codes_fit_a_nibble(self):
        """Each element's fp4 code sits in the low nibble of its byte."""
        rng = np.random.default_rng(6)
        tensor = encode_mxfp4(rng.standard_normal((4, 64)))
        assert tensor.codes.dtype == np.uint8
        assert tensor.codes.shape == (4, 64)
        assert int(tensor.codes.max()) < 16

    def test_group_size_enforced(self):
        with pytest.raises(ValueError):
            encode_mxfp4(np.zeros((4, 40)))

    def test_mxfp4_relative_error(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((8, 128))
        decoded = decode_mxfp4(encode_mxfp4(values))
        rel = np.abs(decoded - values).mean() / np.abs(values).mean()
        assert rel < 0.2  # 4-bit quantization noise


class TestQuantizeTo:
    def test_int_clipping(self):
        out = quantize_to(np.array([300.0, -300.0, 5.4]), I8)
        assert list(out) == [127.0, -128.0, 5.0]

    def test_f64_identity(self):
        values = np.array([1.234567890123])
        assert np.array_equal(quantize_to(values, F64), values)

    @pytest.mark.parametrize(
        "dtype", [F8E4M3, F8E5M2, BF16, F16, F32, I8]
    )
    def test_idempotent(self, dtype):
        rng = np.random.default_rng(13)
        values = rng.standard_normal(64) * 3
        once = quantize_to(values, dtype)
        assert np.array_equal(quantize_to(once, dtype), once)


class TestEmulatedMatmul:
    def test_compute_precision(self):
        assert compute_precision(I8, F16) is F16
        assert compute_precision(BF16, MXFP4) is BF16
        assert compute_precision(MXFP4, MXFP4) is F32

    def test_against_float64(self):
        rng = np.random.default_rng(1)
        a = rng.integers(-3, 4, (16, 32)).astype(np.float64)
        b = rng.integers(-3, 4, (32, 8)).astype(np.float64)
        out, prec = emulated_matmul(a, b, I8, F64)
        assert prec is F64
        assert np.array_equal(out, a @ b)

    def test_quantization_error_present(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((16, 32))
        b = rng.standard_normal((32, 8))
        out, _ = emulated_matmul(a, b, F8E5M2, F16)
        exact = a @ b
        assert not np.allclose(out, exact, atol=1e-12)
        assert np.allclose(out, exact, atol=2.0)


class TestPreShuffle:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((64, 16))
        for kwidth in (1, 2, 4):
            assert np.array_equal(
                unshuffle_operand(preshuffle_operand(w, kwidth), kwidth),
                w,
            )

    def test_fragment_becomes_contiguous(self):
        """After the shuffle, a lane's two K runs are adjacent."""
        kwidth = 2
        k = 16
        perm = preshuffle_operand(
            np.arange(k, dtype=np.float64)[:, None], kwidth
        )[:, 0].astype(int)
        fragment = fragment_positions(kwidth)
        positions = sorted(np.where(np.isin(perm, fragment))[0])
        assert positions == list(range(positions[0],
                                       positions[0] + len(fragment)))

    def test_k_must_be_multiple(self):
        with pytest.raises(ValueError):
            preshuffle_operand(np.zeros((12, 4)), kwidth=2)

    def test_analysis_gains(self):
        gain = analyze_pair(MXFP4)
        assert gain.vector_bits_before == 32
        assert gain.vector_bits_after == 128
        assert gain.speed_ratio == 4.0
