"""Program trace inspection: disassembly and instruction-mix summaries.

Debugging aid for kernel authors: render a built program's dynamic
instruction stream as readable assembly-like text, and summarize its
instruction mix (the quantities the platform's cycle and energy models
consume).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .isa import Instr, Kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .program import Program

__all__ = ["disassemble", "InstructionMix", "instruction_mix"]

_MEM_MNEMONICS = {Kind.LOAD: "lw", Kind.STORE: "sw"}


def _mnemonic(instr: Instr) -> str:
    kind = instr.kind
    if kind == Kind.ALU:
        return "alu"
    if kind == Kind.LI:
        if instr.fmt is not None:
            return f"fli.{_suffix(instr)}"
        return "li"
    if kind in _MEM_MNEMONICS:
        base = _MEM_MNEMONICS[kind]
        if instr.fmt is None:
            return base
        width = {1: "b", 2: "h", 4: "w"}[instr.fmt.storage_bytes]
        if instr.lanes > 1:
            return f"v{base[0]}l{width}" if kind == Kind.LOAD else f"vs{width}"
        return f"f{base[0]}{base[1]}{width}"
    if kind == Kind.FP:
        prefix = "vf" if instr.lanes > 1 else "f"
        return f"{prefix}{instr.op}.{_suffix(instr)}"
    if kind == Kind.CAST:
        prefix = "vf" if instr.lanes > 1 else "f"
        return f"{prefix}cvt"
    if kind == Kind.BRANCH:
        return "bne" if instr.taken else "bne(nt)"
    if kind == Kind.LOOP_SETUP:
        return "lp.setup"
    return "nop"


def _suffix(instr: Instr) -> str:
    names = {
        "binary8": "b", "binary16": "h", "binary16alt": "ah",
        "binary32": "s", "binary64": "d",
    }
    return names.get(instr.fmt.name if instr.fmt else "", "?")


def disassemble(program: Program, limit: int | None = None) -> str:
    """Render the dynamic instruction stream as assembly-like text."""
    lines = []
    instrs = program.instrs[:limit] if limit else program.instrs
    for pc, instr in enumerate(instrs):
        operands = []
        if instr.dst is not None:
            operands.append(f"r{instr.dst}")
        operands.extend(f"r{s}" for s in instr.srcs)
        mnemonic = _mnemonic(instr)
        lanes = f" x{instr.lanes}" if instr.lanes > 1 else ""
        lines.append(
            f"{pc:6d}: {mnemonic:12s} {', '.join(operands)}{lanes}"
        )
    if limit and len(program.instrs) > limit:
        lines.append(f"  ... {len(program.instrs) - limit} more")
    return "\n".join(lines)


@dataclass
class InstructionMix:
    """Counts per instruction class, plus FP/cast/memory detail."""

    total: int = 0
    by_kind: Counter = field(default_factory=Counter)
    fp_by_format: Counter = field(default_factory=Counter)
    vector_instrs: int = 0
    cast_instrs: int = 0
    taken_branches: int = 0

    def fraction(self, kind: Kind) -> float:
        if self.total == 0:
            return 0.0
        return self.by_kind[kind.name] / self.total


def instruction_mix(program: Program) -> InstructionMix:
    """Tally the instruction mix of a built program.

    Runs as bincounts over the program's cached columns (the mix feeds
    the Fig. 6 driver's per-class attribution, so it sits on the replay
    hot path).
    """
    from .columnar import instruction_mix_columns  # columnar imports us

    return instruction_mix_columns(program.columns())
