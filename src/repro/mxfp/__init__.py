"""Mixed-precision numerics: dtype registry and software codecs.

Section 5.2's mixed-precision matmul work needs bit-exact emulation of
the low-precision types Triton supports: fp8 (e4m3/e5m2), bf16, fp16,
the integer family, and MXFP4 — the OCP Microscaling format where each
group of 32 fp4(e2m1) values shares one power-of-two scale byte.
"""

from repro.mxfp.types import (
    BF16,
    DType,
    F16,
    F32,
    F64,
    F8E4M3,
    F8E5M2,
    I16,
    I32,
    I64,
    I8,
    MXFP4,
    dtype_by_name,
    mma_kwidth,
)
from repro.mxfp.quantize import (
    MxfpTensor,
    decode_fp4_e2m1,
    decode_fp8,
    decode_mxfp4,
    encode_bf16,
    encode_fp4_e2m1,
    encode_fp8,
    encode_mxfp4,
    quantize_to,
)
from repro.mxfp.emulate import upcast_for_mma
from repro.mxfp.shuffle_opt import (
    PreShuffleResult,
    preshuffle_operand,
    operand_vector_bits,
)

__all__ = [
    "BF16",
    "DType",
    "F16",
    "F32",
    "F64",
    "F8E4M3",
    "F8E5M2",
    "I16",
    "I32",
    "I64",
    "I8",
    "MXFP4",
    "MxfpTensor",
    "PreShuffleResult",
    "decode_fp4_e2m1",
    "decode_fp8",
    "decode_mxfp4",
    "dtype_by_name",
    "encode_bf16",
    "encode_fp4_e2m1",
    "encode_fp8",
    "encode_mxfp4",
    "mma_kwidth",
    "operand_vector_bits",
    "preshuffle_operand",
    "quantize_to",
    "upcast_for_mma",
]
