"""Graph execution over NumPy arrays.

Layout-conversion nodes do not just pass through: when both sides
carry layouts covering the tensor, the conversion executes on the
simulated machine — the same warp-program interpreter that prices and
traces it — so graph semantics and cycle traces come from one source.
Every element is verified to arrive at its destination slot; the
per-conversion traces are collected on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.dims import LANE, WARP
from repro.core.errors import LayoutError
from repro.engine.ir import Graph, OpKind, Value
from repro.hardware.spec import GpuSpec, RTX4090
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


def _layout_shape(layout) -> tuple:
    return tuple(
        layout.out_dim_size(d) for d in layout.out_dims
    )


def _simulate_conversion(
    op, arr: np.ndarray, result, machines: Dict, spec: GpuSpec
):
    """Run one CONVERT_LAYOUT node on ``spec``'s simulated machine.

    Plans for ``spec``, distributes the tensor over the source
    layout's register file, executes the lowered warp program, and
    checks every element landed at its destination slot.  Returns
    False (caller passes the value through) when the layouts do not
    cover the tensor, their lane count is not ``spec``'s warp size, or
    the pair has no plan — partial-tile graph nodes keep their NumPy
    semantics.
    """
    from repro.codegen.conversion import plan_conversion
    from repro.gpusim.machine import Machine
    from repro.gpusim.registers import (
        assert_matches_layout,
        distributed_data,
    )

    src_l = op.inputs[0].layout
    dst_l = op.output.layout
    if src_l is None or dst_l is None:
        return False
    if (
        _layout_shape(src_l) != tuple(arr.shape)
        or _layout_shape(dst_l) != tuple(arr.shape)
    ):
        return False
    if (
        src_l.in_dim_size(LANE) != spec.warp_size
        or dst_l.in_dim_size(LANE) != spec.warp_size
    ):
        # Layouts compiled for another platform: planning them for
        # ``spec`` would size the machine for the wrong warp.
        return False
    try:
        plan = plan_conversion(
            src_l, dst_l, elem_bits=op.inputs[0].dtype.bits, spec=spec
        )
    except LayoutError:
        return False
    num_warps = max(
        src_l.in_dim_size(WARP), dst_l.in_dim_size(WARP)
    )
    machine = machines.get(num_warps)
    if machine is None:
        machine = Machine(spec, num_warps=num_warps)
        machines[num_warps] = machine
    flat = arr.ravel()
    registers = distributed_data(
        src_l,
        num_warps,
        machine.spec.warp_size,
        value_of=lambda p: flat[p],
    )
    converted, trace = machine.run_conversion(plan, registers)
    assert_matches_layout(converted, dst_l, value_of=lambda p: flat[p])
    result.conversion_traces.append(trace)
    return True


def execute_graph(
    graph: Graph,
    inputs: Sequence[np.ndarray],
    quantize_inputs: bool = True,
    simulate_conversions: bool = True,
    spec: GpuSpec = RTX4090,
) -> ExecutionResult:
    """Run a graph; ``inputs`` feed the LOAD ops in program order.

    With ``quantize_inputs`` each input is rounded through its
    declared dtype first, as loading from a low-precision buffer
    would.  With ``simulate_conversions`` (the default), layout
    conversions whose layouts cover the tensor execute on the
    simulated machine of ``spec`` — the platform the graph was
    compiled for, whose warp size its layouts assume — and their
    traces land in :attr:`ExecutionResult.conversion_traces`.
    """
    result = ExecutionResult()
    env: Dict[int, np.ndarray] = {}
    machines: Dict[int, object] = {}
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
            if simulate_conversions:
                # Values are preserved by construction; the simulated
                # run verifies the routing and records the trace.
                _simulate_conversion(op, arr, result, machines, spec)
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
