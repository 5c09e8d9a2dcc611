"""A tour of the layout engine (Section 4.4) on a fused-attention tile.

Builds the template-attention kernel model, compiles it in linear and
legacy mode on each platform, and prints what the engine decided:
which layouts anchor where, how many conversions were inserted, how
each was lowered (no-op / register permute / shuffles / shared), and
the simulated cost.

Run:  python examples/layout_engine_tour.py
"""

from repro.engine import KernelBuilder, compile
from repro.engine.ir import OpKind
from repro.hardware import GH200, MI250, PLATFORMS, RTX4090
from repro.kernels.models import build_template_attention
from repro.mxfp import F16, F32


def describe(compiled, label: str) -> None:
    counts = compiled.op_counts()
    kinds = {}
    for plan in compiled.conversions:
        kinds[plan.kind] = kinds.get(plan.kind, 0) + 1
    print(f"  {label:8s} cycles={compiled.cycles():>8.0f}  "
          f"converts={counts['convert_layout']:>2d} {dict(kinds)}  "
          f"local_load={counts['local_load']:<4d} "
          f"local_store={counts['local_store']}")


def main() -> None:
    print("template_attention, one (64 x 64) tile, 4 KV iterations\n")
    for name, spec in PLATFORMS.items():
        print(f"{name} ({spec.mma_flavor}, "
              f"ldmatrix={'yes' if spec.has_ldmatrix else 'no'}):")
        results = {}
        for mode in ("linear", "legacy"):
            kb = build_template_attention(seq=64, head=64, kv_iters=4)
            results[mode] = compile(kb.graph, spec, mode)
            describe(results[mode], mode)
        speedup = results["legacy"].cycles() / results["linear"].cycles()
        print(f"  -> speedup {speedup:.2f}x\n")

    # Peek at the compiled IR of the linear version on one platform.
    kb = build_template_attention(seq=64, head=64, kv_iters=1)
    compiled = compile(kb.graph, RTX4090, "linear")
    print("linear-mode IR (1 KV iteration, RTX4090):")
    for op in compiled.graph.ops:
        layout = op.output.layout if op.output is not None else None
        summary = ""
        if layout is not None:
            summary = " @ " + ", ".join(
                f"{d}:{layout.in_dim_size(d)}" for d in layout.in_dims
            )
        print(f"  {op}{summary}")


if __name__ == "__main__":
    main()
