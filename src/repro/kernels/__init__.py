"""Kernel models of the TritonBench suite (Section 6.2).

Each model reproduces the *op structure* of one benchmarked Triton
kernel — which loads feed which dots, where reductions and shape
operations sit, how many K-iterations amortize the operand staging —
so that compiling it in ``linear`` vs ``legacy`` mode reproduces the
layout-conversion/shared-memory cost differences behind Figure 9 and
the op mix of Table 6.
"""

from repro.kernels.models import KERNELS, KernelCase, KernelModel

__all__ = ["KERNELS", "KernelCase", "KernelModel"]
