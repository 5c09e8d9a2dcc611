"""Graph execution over NumPy arrays.

A compiled kernel's layout conversions do not just pass through: each
runs the plan the compiler chose for it on the simulated machine —
the same warp-program interpreter that prices and traces it — so
graph semantics and cycle traces come from one source.  Every element
is verified to arrive at its destination slot; the per-conversion
traces are collected on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Union

import numpy as np

from repro.core.dims import WARP
from repro.engine.engine import CompiledKernel
from repro.engine.ir import Graph, OpKind, Value
from repro.gpusim.machine import Machine
from repro.gpusim.registers import assert_matches_layout, distributed_data
from repro.gpusim.trace import Trace
from repro.hardware.spec import GpuSpec
from repro.mxfp.emulate import emulated_matmul
from repro.mxfp.quantize import quantize_to


_ELEMENTWISE = {
    "add": lambda *xs: sum(xs[1:], xs[0]),
    "sub": lambda a, b: a - b,
    "mul": lambda *xs: np.prod(np.stack(xs), axis=0),
    "div": lambda a, b: a / b,
    "exp": lambda a: np.exp(a),
    "neg": lambda a: -a,
    "max": lambda a, b: np.maximum(a, b),
    "copy": lambda a: a,
    "relu": lambda a: np.maximum(a, 0.0),
}

_REDUCE = {
    "sum": np.sum,
    "max": np.max,
    "min": np.min,
}


@dataclass
class ExecutionResult:
    """Values produced by a graph run."""

    stores: List[np.ndarray] = field(default_factory=list)
    values: Dict[int, np.ndarray] = field(default_factory=dict)
    #: One machine trace per layout conversion executed through the
    #: warp-program interpreter, in graph order.
    conversion_traces: List[object] = field(default_factory=list)


def _simulate_conversion(
    plan, op, arr: np.ndarray, machines: Dict[int, Machine], spec: GpuSpec
) -> Trace:
    """Run one CONVERT_LAYOUT's compiled plan on the simulated machine.

    Distributes the tensor over the source layout's register file,
    executes the plan's warp program on ``spec`` at the larger of the
    two layouts' warp counts, checks every element landed at its
    destination slot, and returns the run's trace.
    """
    src_l = op.inputs[0].layout
    dst_l = op.output.layout
    num_warps = max(src_l.in_dim_size(WARP), dst_l.in_dim_size(WARP))
    machine = machines.get(num_warps)
    if machine is None:
        machine = machines[num_warps] = Machine(spec, num_warps)
    flat = arr.ravel()
    registers = distributed_data(
        src_l, num_warps, spec.warp_size, value_of=lambda p: flat[p]
    )
    converted, trace = machine.run_conversion(plan, registers)
    assert_matches_layout(converted, dst_l, value_of=lambda p: flat[p])
    return trace


def execute_graph(
    kernel: Union[Graph, CompiledKernel],
    inputs: Sequence[np.ndarray],
    quantize_inputs: bool = True,
) -> ExecutionResult:
    """Run a graph; ``inputs`` feed the LOAD ops in program order.

    A bare :class:`Graph` runs with reference NumPy semantics: layout
    conversions pass values through.  A :class:`CompiledKernel` runs
    its graph, and each CONVERT_LAYOUT also runs the plan the compiler
    chose for it (``kernel.conversions``, in graph order) on the
    simulated machine of the kernel's platform; the run's trace lands
    in :attr:`ExecutionResult.conversion_traces`.  A conversion that
    cannot run raises.

    With ``quantize_inputs`` each input is rounded through its
    declared dtype first, as loading from a low-precision buffer
    would.
    """
    plans: Iterator = iter(())
    if isinstance(kernel, CompiledKernel):
        if not kernel.ok:
            raise ValueError(
                f"cannot execute a failed compile: {kernel.error}"
            )
        graph = kernel.graph
        converts = graph.count(OpKind.CONVERT_LAYOUT)
        if converts != len(kernel.conversions):
            raise ValueError(
                f"kernel has {converts} conversions but "
                f"{len(kernel.conversions)} plans"
            )
        plans = iter(kernel.conversions)
    else:
        graph = kernel
    loads = graph.count(OpKind.LOAD)
    if len(inputs) != loads:
        raise ValueError(
            f"graph has {loads} LOAD ops, got {len(inputs)} inputs"
        )
    result = ExecutionResult()
    env: Dict[int, np.ndarray] = {}
    machines: Dict[int, Machine] = {}
    load_idx = 0

    def get(value: Value) -> np.ndarray:
        """Look up a computed SSA value."""
        return env[value.vid]

    for op in graph.ops:
        kind = op.kind
        if kind == OpKind.LOAD:
            arr = np.asarray(inputs[load_idx], dtype=np.float64)
            load_idx += 1
            if tuple(arr.shape) != tuple(op.output.shape):
                raise ValueError(
                    f"input {load_idx - 1} has shape {arr.shape}, "
                    f"expected {op.output.shape}"
                )
            if quantize_inputs:
                arr = quantize_to(arr, op.output.dtype)
            env[op.output.vid] = arr
        elif kind == OpKind.STORE:
            result.stores.append(get(op.inputs[0]))
        elif kind == OpKind.CONVERT_LAYOUT:
            arr = get(op.inputs[0])
            plan = next(plans, None)
            if plan is not None:
                # Values are preserved by construction; the simulated
                # run verifies the routing and records the trace.
                result.conversion_traces.append(
                    _simulate_conversion(
                        plan, op, arr, machines, kernel.trace.spec
                    )
                )
            env[op.output.vid] = arr
        elif kind == OpKind.LOCAL_STORE or kind == OpKind.LOCAL_LOAD:
            env[op.output.vid] = get(op.inputs[0])
        elif kind == OpKind.ELEMENTWISE:
            fn = _ELEMENTWISE[op.attrs.get("name", "add")]
            env[op.output.vid] = fn(*[get(v) for v in op.inputs])
        elif kind == OpKind.DOT:
            a, b = op.inputs
            out, _ = emulated_matmul(
                get(a), get(b), a.dtype, b.dtype
            )
            env[op.output.vid] = out
        elif kind == OpKind.REDUCE:
            fn = _REDUCE[op.attrs.get("op", "sum")]
            env[op.output.vid] = fn(
                get(op.inputs[0]), axis=op.attrs["axis"]
            )
        elif kind == OpKind.SCAN:
            axis = op.attrs["axis"]
            data = get(op.inputs[0])
            if op.attrs.get("reverse", False):
                data = np.flip(data, axis=axis)
            scan_op = op.attrs.get("op", "sum")
            if scan_op == "sum":
                scanned = np.cumsum(data, axis=axis)
            elif scan_op == "max":
                scanned = np.maximum.accumulate(data, axis=axis)
            elif scan_op == "mul":
                scanned = np.cumprod(data, axis=axis)
            else:
                raise ValueError(f"unknown scan op {scan_op!r}")
            if op.attrs.get("reverse", False):
                scanned = np.flip(scanned, axis=axis)
            env[op.output.vid] = scanned
        elif kind == OpKind.GATHER:
            src, index = (get(v) for v in op.inputs)
            env[op.output.vid] = np.take_along_axis(
                src, index.astype(np.int64), axis=op.attrs["axis"]
            )
        elif kind == OpKind.TRANS:
            env[op.output.vid] = np.transpose(
                get(op.inputs[0]), op.attrs["perm"]
            )
        elif kind == OpKind.RESHAPE:
            env[op.output.vid] = get(op.inputs[0]).reshape(
                op.attrs["shape"]
            )
        elif kind == OpKind.EXPAND_DIMS:
            env[op.output.vid] = np.expand_dims(
                get(op.inputs[0]), op.attrs["axis"]
            )
        elif kind == OpKind.BROADCAST:
            env[op.output.vid] = np.broadcast_to(
                get(op.inputs[0]), op.attrs["shape"]
            ).copy()
        elif kind == OpKind.JOIN:
            env[op.output.vid] = np.stack(
                [get(v) for v in op.inputs], axis=-1
            )
        elif kind == OpKind.SPLIT:
            env[op.output.vid] = get(op.inputs[0])[
                ..., op.attrs["index"]
            ]
        else:  # pragma: no cover
            raise ValueError(f"cannot interpret {kind}")
        if op.output is not None:
            result.values[op.output.vid] = env[op.output.vid]
    return result
