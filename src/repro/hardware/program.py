"""Kernel builder: writes mini-ISA programs while computing them.

The builder plays the role of the compiler in the paper's methodology
(§V-A: GCC with a RISC-V backend, plus manual accounting for the formats
GCC cannot emit).  Application kernels are written against this API; the
builder simultaneously

* **computes** every value bit-exactly (through the FlexFloat
  quantizer), so a kernel's numerical output equals the emulation
  library's, and
* **emits** the dynamic instruction stream the PULPino-like core would
  execute, which the pipeline model then times.

Register values live next to register ids in :class:`Reg`; arrays are
allocated as :class:`ArrayRef` whose payloads stay sanitized to their
format.  Loops use RI5CY hardware loops when the nest depth allows (two
levels), else a software compare-and-branch per iteration.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core import FPFormat, fused_multiply_add, quantize, quantize_array
from repro.telemetry import span as _span

from .isa import Instr, Kind

__all__ = ["Reg", "ArrayRef", "KernelBuilder", "Program"]

#: Maximum hardware-loop nesting depth (RI5CY has two lp register sets).
HW_LOOP_LEVELS = 2


class Reg:
    """A virtual register carrying its current value.

    ``value`` is a float for scalar FP/int registers, or a tuple of
    floats for packed-SIMD registers.
    """

    __slots__ = ("rid", "value")

    def __init__(self, rid: int, value) -> None:
        self.rid = rid
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Reg(r{self.rid}={self.value!r})"


class ArrayRef:
    """A data-memory array bound to one storage format.

    ``fmt is None`` denotes an int32 array (labels, indices).  FP arrays
    keep their payload sanitized to ``fmt`` at all times.
    """

    __slots__ = ("name", "fmt", "data")

    def __init__(self, name: str, fmt: FPFormat | None, data: list) -> None:
        self.name = name
        self.fmt = fmt
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    @property
    def element_bytes(self) -> int:
        return 4 if self.fmt is None else self.fmt.storage_bytes

    def to_numpy(self) -> np.ndarray:
        return np.asarray(self.data, dtype=np.float64)


class Program:
    """An emitted instruction stream plus its data arrays."""

    def __init__(
        self, name: str, instrs: list[Instr], arrays: dict[str, ArrayRef]
    ) -> None:
        self.name = name
        self.instrs = instrs
        self.arrays = arrays
        self._columns = None

    def __len__(self) -> int:
        return len(self.instrs)

    def columns(self):
        """The stream lowered to columnar form, cached on first use.

        A built program's stream never changes, so the lowering runs at
        most once; every columnar analytic (timing, energy, memory,
        mix, report counters) and every re-replay of the same program
        (latency ablations, cluster topology sweeps) shares it.  The
        lowering runs in a ``platform.lower`` span.
        """
        if self._columns is None:
            from .columnar import lower_instrs

            with _span("platform.lower"):
                self._columns = lower_instrs(self.instrs)
        return self._columns

    def output(self, name: str) -> np.ndarray:
        """The final contents of an array (the program's result)."""
        return self.arrays[name].to_numpy()


class KernelBuilder:
    """Emit-and-execute builder for mini-ISA kernels."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._instrs: list[Instr] = []
        self._arrays: dict[str, ArrayRef] = {}
        self._next_reg = 0
        self._loop_depth = 0

    # ------------------------------------------------------------------
    # Data allocation (no instructions emitted: static data layout)
    # ------------------------------------------------------------------
    def alloc(
        self, name: str, values: Sequence[float] | np.ndarray,
        fmt: FPFormat | None,
    ) -> ArrayRef:
        """Allocate and initialise an array; FP payloads are sanitized."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already allocated")
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        if fmt is not None:
            flat = quantize_array(flat, fmt)
        ref = ArrayRef(name, fmt, [float(v) for v in flat])
        self._arrays[name] = ref
        return ref

    def zeros(self, name: str, n: int, fmt: FPFormat | None) -> ArrayRef:
        """Allocate an output array of ``n`` zero elements."""
        return self.alloc(name, np.zeros(n), fmt)

    # ------------------------------------------------------------------
    # Register helpers
    # ------------------------------------------------------------------
    def _reg(self, value) -> Reg:
        reg = Reg(self._next_reg, value)
        self._next_reg += 1
        return reg

    def _emit(self, instr: Instr) -> None:
        self._instrs.append(instr)

    # ------------------------------------------------------------------
    # Integer / control instructions
    # ------------------------------------------------------------------
    def li(self, value: float | int) -> Reg:
        """Load an immediate into a fresh register (1 instruction)."""
        reg = self._reg(value)
        self._emit(Instr(Kind.LI, dst=reg.rid))
        return reg

    def alu(self, value, *srcs: Reg) -> Reg:
        """One integer ALU instruction producing ``value``."""
        reg = self._reg(value)
        self._emit(
            Instr(Kind.ALU, dst=reg.rid, srcs=tuple(s.rid for s in srcs))
        )
        return reg

    def branch(self, taken: bool, *srcs: Reg) -> None:
        """A conditional branch with a known outcome."""
        self._emit(
            Instr(
                Kind.BRANCH,
                srcs=tuple(s.rid for s in srcs),
                taken=taken,
            )
        )

    def loop(self, n: int, soft: bool = False) -> Iterator[int]:
        """Iterate a counted loop, emitting the loop machinery.

        Uses a zero-overhead hardware loop when the nest depth allows and
        ``soft`` is False (two LOOP_SETUP instructions up front);
        otherwise emits an increment and a branch per iteration.
        """
        hw = not soft and self._loop_depth < HW_LOOP_LEVELS
        if n > 0 and hw:
            self._emit(Instr(Kind.LOOP_SETUP))
            self._emit(Instr(Kind.LOOP_SETUP))
        counter = self.li(0) if not hw and n > 0 else None
        self._loop_depth += 1
        try:
            for i in range(n):
                yield i
                if not hw:
                    counter = self.alu(i + 1, counter)
                    self.branch(i < n - 1, counter)
        finally:
            self._loop_depth -= 1

    # ------------------------------------------------------------------
    # Memory instructions
    # ------------------------------------------------------------------
    def load(self, arr: ArrayRef, index: int, lanes: int = 1) -> Reg:
        """Load ``lanes`` consecutive elements (1 memory access)."""
        self._check_lanes(arr.fmt, lanes)
        if index < 0 or index + lanes > len(arr.data):
            raise IndexError(
                f"{arr.name}[{index}:{index + lanes}] out of bounds "
                f"(len {len(arr.data)})"
            )
        if lanes == 1:
            value = arr.data[index]
        else:
            value = tuple(arr.data[index : index + lanes])
        reg = self._reg(value)
        self._emit(
            Instr(
                Kind.LOAD,
                dst=reg.rid,
                fmt=arr.fmt,
                lanes=lanes,
                width=arr.element_bytes * lanes,
            )
        )
        return reg

    def store(
        self, arr: ArrayRef, index: int, reg: Reg, lanes: int = 1
    ) -> None:
        """Store ``lanes`` consecutive elements (1 memory access)."""
        self._check_lanes(arr.fmt, lanes)
        if index < 0 or index + lanes > len(arr.data):
            raise IndexError(
                f"{arr.name}[{index}:{index + lanes}] out of bounds "
                f"(len {len(arr.data)})"
            )
        values = reg.value if lanes > 1 else (reg.value,)
        if len(values) != lanes:
            raise ValueError(
                f"register holds {len(values)} lanes, store wants {lanes}"
            )
        for offset, v in enumerate(values):
            if arr.fmt is not None:
                v = quantize(float(v), arr.fmt)
            arr.data[index + offset] = v
        self._emit(
            Instr(
                Kind.STORE,
                srcs=(reg.rid,),
                fmt=arr.fmt,
                lanes=lanes,
                width=arr.element_bytes * lanes,
            )
        )

    # ------------------------------------------------------------------
    # Floating-point instructions
    # ------------------------------------------------------------------
    def fconst(self, value: float, fmt: FPFormat) -> Reg:
        """Materialize an FP constant (1 instruction, no memory access)."""
        reg = self._reg(quantize(float(value), fmt))
        self._emit(Instr(Kind.LI, dst=reg.rid, fmt=fmt))
        return reg

    def vconst(self, values: Sequence[float], fmt: FPFormat) -> Reg:
        """Materialize a packed SIMD constant (replicated immediate)."""
        self._check_lanes(fmt, len(values))
        reg = self._reg(tuple(quantize(float(v), fmt) for v in values))
        self._emit(
            Instr(Kind.LI, dst=reg.rid, fmt=fmt, lanes=len(values))
        )
        return reg

    def fp(self, op: str, fmt: FPFormat, a: Reg, b: Reg, lanes: int = 1) -> Reg:
        """ADD/SUB/MUL/CMP (any format) or DIV/SQRT (binary32, scalar)."""
        self._check_lanes(fmt, lanes)
        va = _lanes_of(a.value, lanes)
        vb = _lanes_of(b.value, lanes)
        raw = [_fp_apply(op, x, y) for x, y in zip(va, vb)]
        out = tuple(quantize(v, fmt) for v in raw)
        reg = self._reg(out[0] if lanes == 1 else out)
        self._emit(
            Instr(
                Kind.FP,
                dst=reg.rid,
                srcs=(a.rid, b.rid),
                op=op,
                fmt=fmt,
                lanes=lanes,
            )
        )
        return reg

    def fma(
        self, fmt: FPFormat, a: Reg, b: Reg, c: Reg, lanes: int = 1
    ) -> Reg:
        """Fused multiply-add ``a*b + c`` (single rounding, extension op)."""
        self._check_lanes(fmt, lanes)
        va = _lanes_of(a.value, lanes)
        vb = _lanes_of(b.value, lanes)
        vc = _lanes_of(c.value, lanes)
        out = tuple(
            fused_multiply_add(x, y, z, fmt) for x, y, z in zip(va, vb, vc)
        )
        reg = self._reg(out[0] if lanes == 1 else out)
        self._emit(
            Instr(
                Kind.FP,
                dst=reg.rid,
                srcs=(a.rid, b.rid, c.rid),
                op="fma",
                fmt=fmt,
                lanes=lanes,
            )
        )
        return reg

    def fsqrt(self, fmt: FPFormat, a: Reg) -> Reg:
        """Sequential square root (binary32 only on this platform)."""
        value = quantize(
            float(a.value) ** 0.5 if float(a.value) >= 0 else float("nan"),
            fmt,
        )
        reg = self._reg(value)
        self._emit(
            Instr(Kind.FP, dst=reg.rid, srcs=(a.rid,), op="sqrt", fmt=fmt)
        )
        return reg

    def fdiv(self, fmt: FPFormat, a: Reg, b: Reg) -> Reg:
        """Sequential division (binary32 only on this platform)."""
        return self.fp("div", fmt, a, b)

    def cast(
        self,
        reg: Reg,
        src_fmt: FPFormat | None,
        dst_fmt: FPFormat | None,
        lanes: int = 1,
    ) -> Reg:
        """FP<->FP or FP<->int conversion (1 cycle on the cast slices)."""
        if src_fmt is None and dst_fmt is None:
            raise ValueError("cast needs at least one FP side")
        values = _lanes_of(reg.value, lanes)
        if dst_fmt is None:
            out = tuple(float(int(round(v))) for v in values)
        else:
            out = tuple(quantize(float(v), dst_fmt) for v in values)
        op = "cvt_ff"
        if src_fmt is None:
            op = "cvt_if"
        elif dst_fmt is None:
            op = "cvt_fi"
        new = self._reg(out[0] if lanes == 1 else out)
        self._emit(
            Instr(
                Kind.CAST,
                dst=new.rid,
                srcs=(reg.rid,),
                op=op,
                fmt=dst_fmt,
                src_fmt=src_fmt,
                lanes=lanes,
            )
        )
        return new

    # ------------------------------------------------------------------
    def program(self) -> Program:
        """Finish building and hand the trace to the platform."""
        return Program(self.name, self._instrs, self._arrays)

    @property
    def instruction_count(self) -> int:
        return len(self._instrs)

    # ------------------------------------------------------------------
    @staticmethod
    def _check_lanes(fmt: FPFormat | None, lanes: int) -> None:
        if lanes == 1:
            return
        if fmt is None:
            raise ValueError("int arrays support scalar access only")
        if lanes * fmt.bits > 32:
            raise ValueError(
                f"{lanes} lanes of {fmt} exceed the 32-bit datapath"
            )
        if lanes not in (2, 4):
            raise ValueError(f"unsupported lane count {lanes}")


def _lanes_of(value, lanes: int) -> tuple[float, ...]:
    if lanes == 1:
        if isinstance(value, tuple):
            raise ValueError("scalar operation on a vector register")
        return (float(value),)
    if not isinstance(value, tuple):
        raise ValueError("vector operation on a scalar register")
    if len(value) != lanes:
        raise ValueError(f"register has {len(value)} lanes, need {lanes}")
    return value


def _fp_apply(op: str, x: float, y: float) -> float:
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "cmp":
        return 1.0 if x < y else 0.0
    if op == "div":
        if y == 0.0:
            return float("nan") if x == 0.0 else float("inf") * (1 if x > 0 else -1)
        return x / y
    raise ValueError(f"unknown FP operation {op!r}")
