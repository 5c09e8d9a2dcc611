"""Bit-exact software codecs for low-precision floats.

fp8 (both e4m3 and e5m2), bf16 and fp4(e2m1) are implemented by direct
bit manipulation so the emulated matmuls of Section 5.2 have hardware-
faithful rounding; MXFP4 follows the OCP MX v1.0 spec: groups of 32
fp4(e2m1) elements sharing one 8-bit power-of-two scale (E8M0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.mxfp.types import BF16, DType, F16, F32, F64, F8E4M3, F8E5M2, MXFP4

#: The 16 representable fp4 e2m1 magnitudes (sign handled separately).
_FP4_VALUES = np.array(
    [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0], dtype=np.float64
)

MXFP4_GROUP = 32


def _fp8_params(dtype: DType) -> Tuple[int, int, int]:
    """(exponent bits, mantissa bits, bias) of an fp8 flavour."""
    if dtype == F8E4M3:
        return 4, 3, 7
    if dtype == F8E5M2:
        return 5, 2, 15
    raise ValueError(f"not an fp8 dtype: {dtype}")


def encode_fp8(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Round float values to fp8 bit patterns (round-to-nearest-even).

    Saturates to the format's max finite value (matching GPU cvt
    semantics with saturation, the mode Triton uses).
    """
    e_bits, m_bits, bias = _fp8_params(dtype)
    x = np.asarray(values, dtype=np.float64)
    sign = (np.signbit(x)).astype(np.uint8) << 7
    mag = np.abs(x)
    max_exp = (1 << e_bits) - 1 - (1 if dtype == F8E5M2 else 0)
    # e4m3 (OCP flavour) uses exponent 15 with mantissa < 7 for finite
    # values; keep it simple: compute the max finite value directly.
    if dtype == F8E4M3:
        max_finite = 448.0
    else:
        max_finite = 57344.0
    mag = np.minimum(mag, max_finite)
    out = np.zeros(x.shape, dtype=np.uint8)
    nonzero = mag > 0
    if np.any(nonzero):
        exp = np.floor(np.log2(np.where(nonzero, mag, 1.0)))
        exp = np.clip(exp, 1 - bias, max_exp - bias)
        scale = np.power(2.0, exp)
        frac = np.where(nonzero, mag / scale, 0.0)
        # Subnormals: exponent pinned at 1-bias, no implicit leading 1.
        subnormal = frac < 1.0
        mant = np.where(
            subnormal,
            _round_half_even(frac * (1 << m_bits)),
            _round_half_even((frac - 1.0) * (1 << m_bits)),
        )
        # Mantissa overflow bumps the exponent.
        overflow = (~subnormal) & (mant >= (1 << m_bits))
        exp = exp + overflow
        mant = np.where(overflow, 0, mant)
        too_big = exp > (max_exp - bias)
        exp = np.minimum(exp, max_exp - bias)
        mant = np.where(too_big, (1 << m_bits) - 1, mant)
        biased = np.where(subnormal & ~overflow, 0, exp + bias).astype(
            np.int64
        )
        code = (biased << m_bits) | mant.astype(np.int64)
        out = np.where(nonzero, code, 0).astype(np.uint8)
    return (out | sign).astype(np.uint8)


def _round_half_even(x: np.ndarray) -> np.ndarray:
    return np.rint(x)


def decode_fp8(codes: np.ndarray, dtype: DType) -> np.ndarray:
    """Decode fp8 bit patterns back to float64."""
    e_bits, m_bits, bias = _fp8_params(dtype)
    c = np.asarray(codes, dtype=np.uint8).astype(np.int64)
    sign = np.where(c & 0x80, -1.0, 1.0)
    exp = (c >> m_bits) & ((1 << e_bits) - 1)
    mant = c & ((1 << m_bits) - 1)
    normal = exp > 0
    value = np.where(
        normal,
        (1.0 + mant / (1 << m_bits)) * np.power(2.0, exp - bias),
        (mant / (1 << m_bits)) * np.power(2.0, 1 - bias),
    )
    return sign * value


def encode_bf16(values: np.ndarray) -> np.ndarray:
    """Round float32 to bf16 (round-to-nearest-even on the high half)."""
    f32 = np.asarray(values, dtype=np.float32)
    bits = f32.view(np.uint32)
    rounding = ((bits >> 16) & 1) + 0x7FFF
    rounded = (bits + rounding) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32)


def encode_fp4_e2m1(values: np.ndarray) -> np.ndarray:
    """Quantize to the 4-bit e2m1 grid (nearest, ties to even index)."""
    x = np.asarray(values, dtype=np.float64)
    sign = np.signbit(x).astype(np.uint8) << 3
    mag = np.abs(x)
    idx = np.argmin(
        np.abs(mag[..., None] - _FP4_VALUES[None, ...]), axis=-1
    ).astype(np.uint8)
    return sign | idx


def decode_fp4_e2m1(codes: np.ndarray) -> np.ndarray:
    """Decode 4-bit e2m1 codes to float64 values."""
    c = np.asarray(codes, dtype=np.uint8)
    sign = np.where(c & 0x8, -1.0, 1.0)
    return sign * _FP4_VALUES[c & 0x7]


@dataclass
class MxfpTensor:
    """An MXFP4 tensor: packed fp4 codes + per-group E8M0 scales.

    Grouping runs along the last axis (the K axis of a matmul operand,
    matching "each 32 floating-point elements share a single 8-bit
    exponent").
    """

    codes: np.ndarray   # uint8, one fp4 code per element (low nibble)
    scales: np.ndarray  # uint8 biased exponents, shape[..., k/32]

    @property
    def shape(self) -> Tuple[int, ...]:
        """Logical (unpacked) element shape."""
        return self.codes.shape


def encode_mxfp4(values: np.ndarray) -> MxfpTensor:
    """OCP MX encoding: scale = 2^(floor(log2(max)) - emax_elem)."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape[-1] % MXFP4_GROUP != 0:
        raise ValueError(
            f"last axis ({x.shape[-1]}) must be a multiple of "
            f"{MXFP4_GROUP}"
        )
    grouped = x.reshape(*x.shape[:-1], -1, MXFP4_GROUP)
    max_abs = np.max(np.abs(grouped), axis=-1)
    safe = np.where(max_abs > 0, max_abs, 1.0)
    # emax of e2m1 is 2 (largest magnitude 6.0 = 1.5 * 2^2).
    exp = np.floor(np.log2(safe)).astype(np.int64) - 2
    exp = np.clip(exp, -127, 127)
    scales = (exp + 127).astype(np.uint8)
    scale_values = np.power(2.0, exp)[..., None]
    codes = encode_fp4_e2m1(grouped / scale_values)
    return MxfpTensor(
        codes=codes.reshape(x.shape), scales=scales
    )


def decode_mxfp4(tensor: MxfpTensor) -> np.ndarray:
    """Decode an MXFP4 tensor: fp4 values times per-group scales."""
    codes = tensor.codes
    grouped = decode_fp4_e2m1(codes).reshape(
        *codes.shape[:-1], -1, MXFP4_GROUP
    )
    exp = tensor.scales.astype(np.int64) - 127
    values = grouped * np.power(2.0, exp)[..., None]
    return values.reshape(codes.shape)


def pack_nibbles(codes: np.ndarray) -> np.ndarray:
    """Pack 4-bit codes two-per-byte along the last axis.

    Element ``2i`` occupies the low nibble — the layout int4/mxfp4
    weights use in HBM, where a packed byte holds two adjacent K
    elements (which is why the pre-shuffle of Section 5.2 operates on
    the *other* operand: the packed bytes must stay adjacent).
    """
    c = np.asarray(codes, dtype=np.uint8)
    if c.shape[-1] % 2 != 0:
        raise ValueError("last axis must be even to pack nibbles")
    lo = c[..., 0::2] & 0xF
    hi = c[..., 1::2] & 0xF
    return (lo | (hi << 4)).astype(np.uint8)


def unpack_nibbles(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_nibbles`."""
    p = np.asarray(packed, dtype=np.uint8)
    out = np.empty(p.shape[:-1] + (p.shape[-1] * 2,), dtype=np.uint8)
    out[..., 0::2] = p & 0xF
    out[..., 1::2] = p >> 4
    return out


def quantize_to(values: np.ndarray, dtype: DType) -> np.ndarray:
    """Round-trip values through a dtype (the emulation the engine
    applies before a software-emulated mma consumes an operand)."""
    if dtype in (F8E4M3, F8E5M2):
        return decode_fp8(encode_fp8(values, dtype), dtype)
    if dtype == BF16:
        return encode_bf16(values).astype(np.float64)
    if dtype == F16:
        return np.asarray(values, dtype=np.float16).astype(np.float64)
    if dtype in (F32,):
        return np.asarray(values, dtype=np.float32).astype(np.float64)
    if dtype == F64:
        return np.asarray(values, dtype=np.float64)
    if dtype == MXFP4:
        return decode_mxfp4(encode_mxfp4(values))
    if dtype.kind == "int":
        info_bits = dtype.bits - 1
        lo, hi = -(1 << info_bits), (1 << info_bits) - 1
        return np.clip(np.rint(np.asarray(values)), lo, hi).astype(
            np.float64
        )
    raise ValueError(f"cannot quantize to {dtype}")
