"""Executable conversion plans.

A :class:`ConversionPlan` is a list of steps the simulated GPU
(:mod:`repro.gpusim`) can execute and the cost model can price.  Every
step carries explicit per-lane routing tables — nothing is symbolic at
this point, mirroring how the real compiler has fully lowered the
conversion to PTX by this stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.codegen.access import SharedAccesses
from repro.core.layout import LinearLayout
from repro.obs import core as _obs


@dataclass(frozen=True)
class RegisterPermute:
    """Intra-thread data movement: ``dst_reg <- src_reg``.

    ``dst_to_src[r]`` names the source register whose value ends up in
    destination register ``r`` (the register permutation
    ``(B^{-1}A)_Reg`` of Section 5.4, possibly non-injective when the
    destination broadcasts).
    """

    dst_to_src: Tuple[int, ...]

    def __post_init__(self):
        for r in self.dst_to_src:
            if r < 0:
                raise ValueError(f"negative source register {r}")

    def describe(self) -> str:
        """Readable summary: register count and how many actually move."""
        moved = sum(1 for dst, src in enumerate(self.dst_to_src) if dst != src)
        return (
            f"register_permute: {len(self.dst_to_src)} regs, "
            f"{moved} moved"
        )

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


@dataclass(frozen=True)
class ShuffleRound:
    """One ``shfl.sync`` round (Section 5.4, Figure 4).

    Per destination lane ``l``: read lanes[l] is the source lane,
    ``send_regs[l]`` the registers the *source* lane contributes (a
    vectorized group of ``2^|V|``), and ``recv_regs[l]`` where lane
    ``l`` stores the received values.  Real shuffles move 32 bits per
    instruction; ``insts_per_round`` reflects how many instructions the
    vector width requires.
    """

    src_lane: Tuple[int, ...]
    send_regs: Tuple[Tuple[int, ...], ...]
    recv_regs: Tuple[Tuple[int, ...], ...]
    insts_per_round: int = 1

    def describe(self) -> str:
        """Readable summary: lane fan-in and instruction count."""
        crossing = sum(
            1 for lane, src in enumerate(self.src_lane) if lane != src
        )
        return (
            f"shuffle_round: {len(self.src_lane)} lanes "
            f"({crossing} crossing), {self.insts_per_round} inst/round"
        )

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


@dataclass(frozen=True)
class SharedStore:
    """Per-thread vectorized stores to shared memory.

    Thread ``t``'s access ``k`` stores registers ``accesses.regs[t,
    k]`` contiguously from element offset ``accesses.base[t, k]`` (see
    :class:`~repro.codegen.access.SharedAccesses`).  All lanes issue
    in lockstep, so entry ``k`` across a warp's lanes forms one warp
    instruction.
    """

    accesses: SharedAccesses
    elem_bytes: int
    use_stmatrix: bool = False

    def describe(self) -> str:
        """Readable summary: lanes, accesses/lane, vector width."""
        return _describe_shared(
            "shared_store", self, "stmatrix" if self.use_stmatrix else ""
        )

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


@dataclass(frozen=True)
class SharedLoad:
    """Per-thread vectorized loads from shared memory (same encoding)."""

    accesses: SharedAccesses
    elem_bytes: int
    use_ldmatrix: bool = False

    def describe(self) -> str:
        """Readable summary: lanes, accesses/lane, vector width."""
        return _describe_shared(
            "shared_load", self, "ldmatrix" if self.use_ldmatrix else ""
        )

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


@dataclass(frozen=True)
class Barrier:
    """A CTA-wide ``bar.sync``."""

    def describe(self) -> str:
        """Readable summary."""
        return "barrier"

    def __repr__(self) -> str:
        return "<barrier>"


def _describe_shared(label: str, step, matrix_note: str) -> str:
    """Shared-memory step summary: lanes, per-lane accesses, widths."""
    acc = step.accesses
    vec_bits = acc.widest * step.elem_bytes * 8
    note = f", {matrix_note}" if matrix_note else ""
    return (
        f"{label}: {acc.num_threads} lanes x {acc.max_accesses} accesses, "
        f"vec {vec_bits}b{note}"
    )


Step = object  # union of the five step types above


@dataclass
class ConversionPlan:
    """A fully lowered layout conversion.

    ``kind`` records the decision the planner made ("noop",
    "register", "shuffle", "shared"); ``src``/``dst`` keep the layouts
    for verification; ``steps`` is what executes.
    """

    kind: str
    src: LinearLayout
    dst: LinearLayout
    steps: List[Step] = field(default_factory=list)
    shared_bytes: int = 0
    notes: List[str] = field(default_factory=list)
    #: Lazily lowered warp program (see :meth:`program`); derived
    #: state, never part of plan identity.
    _program: object = field(default=None, repr=False, compare=False)

    def program(self):
        """The plan lowered to the unified warp-program IR.

        The plan stays the planner-facing object; everything that
        executes, prices, or traces consumes this
        :class:`~repro.program.ir.WarpProgram` instead.  Lowered once
        and cached on the plan (plans themselves are cached and shared,
        so the program — and the interpreter scratch it carries — is
        amortized across compilations).

        Cached plans are shared across service worker threads, so the
        lazy lowering publishes exactly once: racing threads each
        lower (deterministically identical programs) but the first
        publication wins, keeping one scratch side-table per plan.
        """
        if self._program is None:
            from repro.program.lower import lower_plan

            with _obs.span(
                "codegen:lower_plan",
                kind=self.kind,
                steps=len(self.steps),
            ) as sp:
                lowered = lower_plan(self)
                sp.set("instructions", len(lowered))
            _obs.count("codegen.programs_lowered", 1, kind=self.kind)
            if self._program is None:
                self._program = lowered
        return self._program

    def num_shuffle_rounds(self) -> int:
        """How many shuffle rounds the plan contains."""
        return sum(1 for s in self.steps if isinstance(s, ShuffleRound))

    def uses_shared_memory(self) -> bool:
        """True iff the plan stages data through shared memory."""
        return any(
            isinstance(s, (SharedStore, SharedLoad)) for s in self.steps
        )

    def describe(self) -> str:
        """A multi-line, human-readable rendering of the plan.

        Pass diagnostics and test failures print this instead of the
        raw dataclass dump (whose routing tables run to thousands of
        characters for real conversions).
        """
        src_dims = "x".join(
            str(self.src.out_dim_size(d)) for d in self.src.out_dims
        )
        dst_dims = "x".join(
            str(self.dst.out_dim_size(d)) for d in self.dst.out_dims
        )
        header = f"ConversionPlan[{self.kind}] {src_dims} -> {dst_dims}"
        details = []
        if self.shared_bytes:
            details.append(f"{self.shared_bytes} shared bytes")
        if self.notes:
            details.append("; ".join(self.notes))
        if details:
            header += f" ({', '.join(details)})"
        lines = [header]
        for i, step in enumerate(self.steps):
            text = (
                step.describe()
                if hasattr(step, "describe")
                else repr(step)
            )
            lines.append(f"  {i}: {text}")
        if not self.steps:
            lines.append("  (no steps)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        shared = (
            f", {self.shared_bytes}B shared" if self.shared_bytes else ""
        )
        return (
            f"<ConversionPlan {self.kind}: {len(self.steps)} steps, "
            f"{self.num_shuffle_rounds()} shuffle rounds{shared}>"
        )
