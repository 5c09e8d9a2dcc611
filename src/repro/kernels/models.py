"""The 21 kernel models and their input configurations.

Shapes are per-program tile shapes (what one CTA handles), as in
Triton.  ``k_iters``-style parameters unroll the software-pipelined
loop so per-iteration conversions and mma work scale realistically —
a kernel dominated by tensor-core work dilutes conversion savings,
which is why Figure 9's real-kernel speedups are far smaller than the
Figure 7 conversion microbenchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.engine.builder import KernelBuilder
from repro.mxfp.types import (
    BF16, DType, F16, F32, F8E5M2, I16, I64, I8,
)


@dataclass(frozen=True)
class KernelCase:
    """One input configuration of a benchmark."""

    name: str
    params: Tuple[Tuple[str, object], ...]

    def kwargs(self) -> Dict[str, object]:
        """The case parameters as builder keyword arguments."""
        return dict(self.params)


@dataclass
class KernelModel:
    """A named kernel with its builder and input sweep."""

    name: str
    build: Callable[..., KernelBuilder]
    cases: List[KernelCase]
    platforms: Tuple[str, ...] = ("RTX4090", "GH200", "MI250")
    needs_large_smem: bool = False
    needs_tma: bool = False


def _case(name: str, **params) -> KernelCase:
    return KernelCase(name=name, params=tuple(sorted(params.items())))


# ----------------------------------------------------------------------
# GEMM family
# ----------------------------------------------------------------------
def build_gemm(
    m: int = 64,
    n: int = 64,
    k: int = 64,
    k_iters: int = 4,
    a_dtype: DType = F16,
    b_dtype: DType = F16,
) -> KernelBuilder:
    """A software-pipelined GEMM: per-iteration loads and dot."""
    kb = KernelBuilder("gemm")
    acc = None
    for _ in range(k_iters):
        a = kb.load((m, k), a_dtype)
        b = kb.load((k, n), b_dtype)
        c = kb.dot(a, b)
        acc = c if acc is None else kb.elementwise(acc, c, name="add")
    kb.store(acc)
    return kb


def build_mixed_gemm(a_dtype: DType, b_dtype: DType, **kw) -> KernelBuilder:
    """A GEMM with mixed operand dtypes (bf16xint16 / fp8 suites)."""
    kb = build_gemm(a_dtype=a_dtype, b_dtype=b_dtype, **kw)
    kb.name = f"{a_dtype}x{b_dtype}_gemm"
    return kb


def build_addmm(m=64, n=64, k=64, k_iters=4) -> KernelBuilder:
    """GEMM plus a bias add in the epilogue."""
    kb = KernelBuilder("addmm")
    acc = None
    for _ in range(k_iters):
        a = kb.load((m, k), F16)
        b = kb.load((k, n), F16)
        c = kb.dot(a, b)
        acc = c if acc is None else kb.elementwise(acc, c, name="add")
    bias = kb.load((m, n), F16)
    kb.store(kb.elementwise(acc, bias, name="add"))
    return kb


def build_grouped_gemm(m=64, n=64, k=64, groups=2) -> KernelBuilder:
    """Several independent GEMMs in one kernel."""
    kb = KernelBuilder("grouped_gemm")
    for _ in range(groups):
        a = kb.load((m, k), F16)
        b = kb.load((k, n), F16)
        kb.store(kb.dot(a, b))
    return kb


def build_int4_gemm(m=64, n=64, k=64, k_iters=4) -> KernelBuilder:
    """int4 weights are loaded packed (i8 carriers), upcast, then dot.

    The upcast result needs an operand layout with wide K runs, which
    legacy Triton staged through shared memory with poor
    vectorization.
    """
    kb = KernelBuilder("int4_gemm")
    acc = None
    for _ in range(k_iters):
        a = kb.load((m, k), F16)
        packed = kb.load((k, n // 2), I8)
        w = kb.reshape(packed, (k, n // 2, 1))
        w = kb.broadcast(w, (k, n // 2, 2))
        w = kb.reshape(w, (k, n))
        w = kb.elementwise(w, name="copy")
        c = kb.dot(a, w)
        acc = c if acc is None else kb.elementwise(acc, c, name="add")
    kb.store(acc)
    return kb


# ----------------------------------------------------------------------
# Attention family
# ----------------------------------------------------------------------
def build_template_attention(
    seq=64, head=64, kv_iters=4
) -> KernelBuilder:
    """Q @ K^T -> online softmax -> @ V.

    Q is loaded once outside the loop (the hoisted-ldmatrix case of
    Section 6.2); K and V stream per iteration.
    """
    kb = KernelBuilder("template_attention")
    q = kb.load((seq, head), F16)
    acc = None
    for _ in range(kv_iters):
        k = kb.load((seq, head), F16)
        kt = kb.trans(k)
        s = kb.dot(q, kt)
        mx = kb.reduce(s, axis=1, op="max")
        mx2 = kb.expand_dims(mx, 1)
        mx2 = kb.broadcast(mx2, (seq, seq))
        p = kb.elementwise(s, mx2, name="sub")
        p = kb.elementwise(p, name="exp")
        v = kb.load((seq, head), F16)
        p16 = kb.elementwise(p, name="copy")
        o = kb.dot(p16, v)
        acc = o if acc is None else kb.elementwise(acc, o, name="add")
    kb.store(acc)
    return kb


def build_flex_attention(seq=64, head=64, kv_iters=4) -> KernelBuilder:
    """Same structure as template_attention with a masked score path."""
    kb = build_template_attention(seq, head, kv_iters)
    kb.name = "flex_attention"
    return kb


# ----------------------------------------------------------------------
# Normalization / reduction family
# ----------------------------------------------------------------------
def build_softmax(rows=128, cols=128) -> KernelBuilder:
    """Row softmax: max-shift, exp, normalize."""
    kb = KernelBuilder("softmax")
    x = kb.load((rows, cols), F32)
    mx = kb.reduce(x, axis=1, op="max")
    mx2 = kb.broadcast(kb.expand_dims(mx, 1), (rows, cols))
    e = kb.elementwise(kb.elementwise(x, mx2, name="sub"), name="exp")
    s = kb.reduce(e, axis=1, op="sum")
    s2 = kb.broadcast(kb.expand_dims(s, 1), (rows, cols))
    kb.store(kb.elementwise(e, s2, name="div"))
    return kb


def build_welford(rows=128, cols=64) -> KernelBuilder:
    """Welford mean/variance.

    The second-stage combine works on a ``[rows, 1]`` tile whose
    reduction produces a sliced layout *equal as a map* to the blocked
    layout the store wants — the equivalence only the linear engine
    can detect (Section 6.2).
    """
    kb = KernelBuilder("welford")
    x = kb.load((rows, cols), F32)
    mean = kb.reduce(x, axis=1, op="sum")
    sq = kb.elementwise(x, x, name="mul")
    m2 = kb.reduce(sq, axis=1, op="sum")
    var = kb.elementwise(m2, kb.elementwise(mean, mean, name="mul"),
                         name="sub")
    # Second stage: combine partial stats held as [rows, 1] tiles.
    part = kb.load((rows, 1), F32)
    combined = kb.reduce(part, axis=1, op="sum")
    out = kb.elementwise(var, combined, name="add")
    kb.store(out)
    kb.store(mean)
    return kb


def build_layer_norm(rows=128, cols=64) -> KernelBuilder:
    """Row layer norm: mean/variance then normalize."""
    kb = KernelBuilder("layer_norm")
    x = kb.load((rows, cols), F32)
    mean = kb.reduce(x, axis=1, op="sum")
    mean2 = kb.broadcast(kb.expand_dims(mean, 1), (rows, cols))
    cent = kb.elementwise(x, mean2, name="sub")
    var = kb.reduce(kb.elementwise(cent, cent, name="mul"), axis=1)
    var2 = kb.broadcast(kb.expand_dims(var, 1), (rows, cols))
    kb.store(kb.elementwise(cent, var2, name="div"))
    return kb


def build_rms_norm(rows=128, cols=64) -> KernelBuilder:
    """Row RMS norm."""
    kb = KernelBuilder("rms_norm")
    x = kb.load((rows, cols), F32)
    sq = kb.elementwise(x, x, name="mul")
    ms = kb.reduce(sq, axis=1, op="sum")
    ms2 = kb.broadcast(kb.expand_dims(ms, 1), (rows, cols))
    kb.store(kb.elementwise(x, ms2, name="div"))
    return kb


def build_sum(rows=128, cols=128) -> KernelBuilder:
    """A plain row reduction."""
    kb = KernelBuilder("sum")
    x = kb.load((rows, cols), F32)
    kb.store(kb.reduce(x, axis=1, op="sum"))
    return kb


def build_cross_entropy(rows=128, cols=128) -> KernelBuilder:
    """Row cross-entropy: log-sum-exp minus the target logit."""
    kb = KernelBuilder("cross_entropy")
    logits = kb.load((rows, cols), F32)
    mx = kb.reduce(logits, axis=1, op="max")
    mx2 = kb.broadcast(kb.expand_dims(mx, 1), (rows, cols))
    shifted = kb.elementwise(logits, mx2, name="sub")
    e = kb.elementwise(shifted, name="exp")
    z = kb.reduce(e, axis=1, op="sum")
    target = kb.load((rows, cols), F32)
    picked = kb.reduce(
        kb.elementwise(shifted, target, name="mul"), axis=1, op="sum"
    )
    kb.store(kb.elementwise(z, picked, name="sub"))
    return kb


# ----------------------------------------------------------------------
# Gather / pointwise family
# ----------------------------------------------------------------------
def build_gather_gemv(rows=64, cols=32) -> KernelBuilder:
    """Row gather feeding a mat-vec: the warp-shuffle gather shows up
    here (Section 5.5)."""
    kb = KernelBuilder("gather_gemv")
    x = kb.load((rows, cols), F16)
    idx = kb.load((rows, cols), I64)
    g = kb.gather(x, idx, axis=1)
    v = kb.broadcast(kb.expand_dims(kb.reduce(g, axis=1), 1),
                     (rows, cols))
    kb.store(kb.elementwise(g, v, name="mul"))
    return kb


def build_embedding(rows=128, cols=64) -> KernelBuilder:
    """Row gather from an embedding table (crosses warps)."""
    kb = KernelBuilder("embedding")
    table = kb.load((rows, cols), F16)
    idx = kb.load((rows, cols), I64)
    kb.store(kb.gather(table, idx, axis=0))
    return kb


def build_rope(seq=128, dim=64) -> KernelBuilder:
    """Rotary embeddings: split/join interleaving plus trig math."""
    kb = KernelBuilder("rope")
    x = kb.load((seq, dim), F16)
    cos = kb.load((seq, dim // 2), F16)
    sin = kb.load((seq, dim // 2), F16)
    pairs = kb.reshape(x, (seq, dim // 2, 2))
    x0 = kb.reshape(
        kb.elementwise(pairs, name="copy"), (seq, dim // 2, 2)
    )
    even, odd = kb.split(x0)
    r_even = kb.elementwise(
        kb.elementwise(even, cos, name="mul"),
        kb.elementwise(odd, sin, name="mul"),
        name="sub",
    )
    r_odd = kb.elementwise(
        kb.elementwise(even, sin, name="mul"),
        kb.elementwise(odd, cos, name="mul"),
        name="add",
    )
    joined = kb.join(r_even, r_odd)
    kb.store(kb.reshape(joined, (seq, dim)))
    return kb


def build_vector_add(n=4096) -> KernelBuilder:
    """The trivial memory-bound baseline."""
    kb = KernelBuilder("vector_add")
    a = kb.load((n,), F32)
    b = kb.load((n,), F32)
    kb.store(kb.elementwise(a, b, name="add"))
    return kb


def build_dropout(n=4096) -> KernelBuilder:
    """Elementwise mask multiply."""
    kb = KernelBuilder("dropout")
    x = kb.load((n,), F32)
    mask = kb.load((n,), F32)
    kb.store(kb.elementwise(x, mask, name="mul"))
    return kb


def build_geglu(rows=64, cols=64, k_iters=2) -> KernelBuilder:
    """GEMM followed by a gated activation."""
    kb = KernelBuilder("geglu")
    acc = None
    for _ in range(k_iters):
        x = kb.load((rows, cols), F16)
        w = kb.load((cols, cols), F16)
        h = kb.dot(x, w)
        acc = h if acc is None else kb.elementwise(acc, h, name="add")
    gate = kb.elementwise(acc, name="relu")
    kb.store(kb.elementwise(acc, gate, name="mul"))
    return kb


def build_bmm(m=64, n=64, k=64) -> KernelBuilder:
    """One batch element of a batched matmul."""
    kb = build_gemm(m=m, n=n, k=k, k_iters=2)
    kb.name = "bmm"
    return kb


def build_mxfp4_gemm(m=64, n=64, k=64, k_iters=2) -> KernelBuilder:
    """Software-emulated mxfp4 x bf16 matmul (Section 5.2).

    The 4-bit weights load packed two-per-byte; the shared scales load
    as a small tensor and broadcast to the weight shape with shape
    operations — the layout engine routes the conversion onto the
    scale tensor, and generic shared loads handle the rest.
    """
    from repro.mxfp.types import BF16, I8

    kb = KernelBuilder("mxfp4_gemm")
    acc = None
    for _ in range(k_iters):
        a = kb.load((m, k), BF16)
        packed = kb.load((k, n // 2), I8)
        codes = kb.reshape(packed, (k, n // 2, 1))
        codes = kb.broadcast(codes, (k, n // 2, 2))
        w = kb.reshape(codes, (k, n))
        scales = kb.load((k // 32, n), BF16)
        scales = kb.expand_dims(scales, 1)
        scales = kb.broadcast(scales, (k // 32, 32, n))
        scales = kb.reshape(scales, (k, n))
        w = kb.elementwise(w, scales, name="mul")
        c = kb.dot(a, w)
        acc = c if acc is None else kb.elementwise(acc, c, name="add")
    kb.store(acc)
    return kb


def build_fused_linear_ce(rows=64, cols=64) -> KernelBuilder:
    """A linear layer fused with the cross-entropy reduction."""
    kb = KernelBuilder("fused_linear_cross_entropy")
    x = kb.load((rows, cols), F16)
    w = kb.load((cols, cols), F16)
    logits = kb.dot(x, w)
    mx = kb.reduce(logits, axis=1, op="max")
    mx2 = kb.broadcast(kb.expand_dims(mx, 1), (rows, cols))
    e = kb.elementwise(kb.elementwise(logits, mx2, name="sub"),
                       name="exp")
    kb.store(kb.reduce(e, axis=1, op="sum"))
    return kb


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _gemm_cases(sizes=((32, 4), (64, 4), (64, 8), (128, 8))):
    return [
        _case(f"t{t}_i{i}", m=t, n=t, k=t, k_iters=i) for t, i in sizes
    ]


KERNELS: Dict[str, KernelModel] = {}


def _register(model: KernelModel) -> None:
    KERNELS[model.name] = model


_register(
    KernelModel(
        "gemm",
        build_gemm,
        _gemm_cases()
        + [
            _case("m128n64_i8", m=128, n=64, k=64, k_iters=8),
            _case("m64n128_i8", m=64, n=128, k=64, k_iters=8),
            _case("t64_i16", m=64, n=64, k=64, k_iters=16),
        ],
    )
)
_register(
    KernelModel(
        "bf16xint16_gemm",
        lambda **kw: build_mixed_gemm(BF16, I16, **kw),
        _gemm_cases(((32, 4), (64, 4), (64, 8)))
        + [_case("m128n64_i8", m=128, n=64, k=64, k_iters=8)],
    )
)
_register(
    KernelModel(
        "fp8_gemm",
        lambda **kw: build_mixed_gemm(F8E5M2, F8E5M2, **kw),
        _gemm_cases(((32, 4), (64, 4), (64, 8)))
        + [_case("t128_i8", m=128, n=128, k=64, k_iters=8)],
        platforms=("RTX4090", "GH200"),
    )
)
_register(
    KernelModel(
        "int4_gemm",
        build_int4_gemm,
        [
            _case("t64_i4", m=64, n=64, k=64, k_iters=4),
            _case("t64_i8", m=64, n=64, k=64, k_iters=8),
            _case("t128_i4", m=128, n=128, k=64, k_iters=4),
            _case("t128_i8", m=128, n=128, k=64, k_iters=8),
        ],
        platforms=("RTX4090", "GH200"),
    )
)
_register(
    KernelModel(
        "template_attention",
        build_template_attention,
        [
            _case("s64_i2", seq=64, head=64, kv_iters=2),
            _case("s64_i4", seq=64, head=64, kv_iters=4),
            _case("s128_i4", seq=128, head=64, kv_iters=4),
            _case("s128_i8", seq=128, head=64, kv_iters=8),
        ],
    )
)
_register(
    KernelModel(
        "flex_attention",
        build_flex_attention,
        [
            _case("s64_i4", seq=64, head=64, kv_iters=4),
            _case("s128_i4", seq=128, head=64, kv_iters=4),
            _case("s128_i8", seq=128, head=64, kv_iters=8),
            _case("s64_i8", seq=64, head=64, kv_iters=8),
        ],
        platforms=("GH200",),
        needs_large_smem=True,
    )
)
_register(
    KernelModel(
        "grouped_gemm",
        build_grouped_gemm,
        [
            _case("g2", m=64, n=64, k=64, groups=2),
            _case("g4", m=64, n=64, k=64, groups=4),
            _case("g8", m=64, n=64, k=64, groups=8),
            _case("g4_t128", m=128, n=64, k=64, groups=4),
        ],
        platforms=("RTX4090", "GH200"),
        needs_tma=True,
    )
)
_register(
    KernelModel(
        "addmm",
        build_addmm,
        [
            _case("t64_i4", m=64, n=64, k=64, k_iters=4),
            _case("t128_i4", m=128, n=128, k=64, k_iters=4),
            _case("t64_i8", m=64, n=64, k=64, k_iters=8),
        ],
    )
)
_register(KernelModel("bmm", build_bmm, [
    _case("t32", m=32, n=32, k=32),
    _case("t64", m=64, n=64, k=64),
    _case("t128", m=128, n=64, k=64),
    _case("t128n128", m=128, n=128, k=64),
]))
_register(
    KernelModel(
        "geglu",
        build_geglu,
        [
            _case("r64", rows=64, cols=64, k_iters=2),
            _case("r128", rows=128, cols=64, k_iters=2),
            _case("r128_i4", rows=128, cols=64, k_iters=4),
        ],
    )
)
_register(
    KernelModel(
        "fused_linear_cross_entropy",
        build_fused_linear_ce,
        [
            _case("r64", rows=64, cols=64),
            _case("r128", rows=128, cols=128),
            _case("r128c64", rows=128, cols=64),
        ],
        platforms=("GH200",),
        needs_large_smem=True,
    )
)
_register(KernelModel("softmax", build_softmax, [
    _case("r128c128", rows=128, cols=128),
    _case("r128c256", rows=128, cols=256),
    _case("r256c128", rows=256, cols=128),
    _case("r64c512", rows=64, cols=512),
    _case("r256c256", rows=256, cols=256),
    _case("r64c64", rows=64, cols=64),
]))
_register(KernelModel("welford", build_welford, [
    _case("r128c64", rows=128, cols=64),
    _case("r128c128", rows=128, cols=128),
    _case("r256c64", rows=256, cols=64),
    _case("r64c256", rows=64, cols=256),
]))
_register(KernelModel("layer_norm", build_layer_norm, [
    _case("r128c64", rows=128, cols=64),
    _case("r128c256", rows=128, cols=256),
    _case("r256c128", rows=256, cols=128),
    _case("r64c64", rows=64, cols=64),
]))
_register(KernelModel("rms_norm", build_rms_norm, [
    _case("r128c64", rows=128, cols=64),
    _case("r256c128", rows=256, cols=128),
    _case("r128c128", rows=128, cols=128),
]))
_register(KernelModel("sum", build_sum, [
    _case("r128c128", rows=128, cols=128),
    _case("r128c512", rows=128, cols=512),
    _case("r512c128", rows=512, cols=128),
    _case("r256c256", rows=256, cols=256),
]))
_register(KernelModel("cross_entropy", build_cross_entropy, [
    _case("r128c128", rows=128, cols=128),
    _case("r128c256", rows=128, cols=256),
    _case("r64c128", rows=64, cols=128),
]))
_register(KernelModel("gather_gemv", build_gather_gemv, [
    _case("r64c32", rows=64, cols=32),
    _case("r128c32", rows=128, cols=32),
    _case("r128c64", rows=128, cols=64),
    _case("r64c16", rows=64, cols=16),
]))
_register(KernelModel("embedding", build_embedding, [
    _case("r128c64", rows=128, cols=64),
    _case("r256c64", rows=256, cols=64),
    _case("r128c128", rows=128, cols=128),
]))
_register(KernelModel("rope", build_rope, [
    _case("s128d64", seq=128, dim=64),
    _case("s256d64", seq=256, dim=64),
    _case("s128d128", seq=128, dim=128),
    _case("s256d128", seq=256, dim=128),
]))
_register(
    KernelModel(
        "mxfp4_gemm",
        build_mxfp4_gemm,
        [
            _case("t64_i2", m=64, n=64, k=64, k_iters=2),
            _case("t64_i4", m=64, n=64, k=64, k_iters=4),
            _case("t128_i4", m=128, n=128, k=64, k_iters=4),
        ],
        platforms=("GH200",),
        needs_large_smem=True,
    )
)
_register(KernelModel("vector_add", build_vector_add, [
    _case("n4096", n=4096),
    _case("n16384", n=16384),
    _case("n65536", n=65536),
]))
_register(KernelModel("dropout", build_dropout, [
    _case("n4096", n=4096),
    _case("n16384", n=16384),
]))
