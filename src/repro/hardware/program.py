"""Kernel builder: writes mini-ISA programs while computing them.

The builder plays the role of the compiler in the paper's methodology
(§V-A: GCC with a RISC-V backend, plus manual accounting for the formats
GCC cannot emit).  Application kernels are written against this API; the
builder simultaneously

* **computes** every value bit-exactly (through the FlexFloat
  quantizer), so a kernel's numerical output equals the emulation
  library's, and
* **emits** the dynamic instruction stream the PULPino-like core would
  execute, which the pipeline model then times.  Each instruction goes
  straight into the stream's column buffers
  (:class:`~repro.hardware.columnar.InstrStream`: one flat int64 row of
  fixed fields plus a source-register tuple), with ops and formats
  interned as they are first used, so lowering the program takes a
  few array operations and no :class:`Instr` object is ever built.

Register values live next to register ids in :class:`Reg`; arrays are
allocated as :class:`ArrayRef` whose payloads stay sanitized to their
format.  Loops use RI5CY hardware loops when the nest depth allows (two
levels), else a software compare-and-branch per iteration.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core import FPFormat, fused_multiply_add, quantize, quantize_array
from repro.core.backend import SCALAR_OPS
from repro.telemetry import span as _span

from .columnar import InstrStream, InstrView, lower_stream
from .isa import Instr, Kind

__all__ = ["Reg", "ArrayRef", "KernelBuilder", "Program"]

#: Maximum hardware-loop nesting depth (RI5CY has two lp register sets).
HW_LOOP_LEVELS = 2

_K_ALU = int(Kind.ALU)
_K_LI = int(Kind.LI)
_K_LOAD = int(Kind.LOAD)
_K_STORE = int(Kind.STORE)
_K_FP = int(Kind.FP)
_K_CAST = int(Kind.CAST)
_K_BRANCH = int(Kind.BRANCH)
_K_LOOP_SETUP = int(Kind.LOOP_SETUP)

#: The FP operators :meth:`KernelBuilder.fp` computes on raw doubles:
#: the backends' scalar table plus the compare.
_FP_OPS = {**SCALAR_OPS, "cmp": lambda x, y: 1.0 if x < y else 0.0}


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

    __slots__ = ("name", "fmt", "data", "element_bytes")

    def __init__(self, name: str, fmt: FPFormat | None, data: list) -> None:
        self.name = name
        self.fmt = fmt
        self.data = data
        self.element_bytes = 4 if fmt is None else fmt.storage_bytes

    def __len__(self) -> int:
        return len(self.data)

    def to_numpy(self) -> np.ndarray:
        return np.asarray(self.data, dtype=np.float64)


class Program:
    """An emitted instruction stream plus its data arrays.

    ``instrs`` is a list of :class:`Instr` (hand-written streams, idle
    cores) or the :class:`InstrStream` a builder emitted into.  The
    program keeps the stream in that emission form: :attr:`instrs` is a
    read-only view that builds :class:`Instr` objects on demand (its
    ``len`` is O(1)), and :meth:`columns` is the lowered form.
    """

    def __init__(
        self,
        name: str,
        instrs: Iterable[Instr] | InstrStream,
        arrays: dict[str, ArrayRef],
    ) -> None:
        self.name = name
        self.stream = (
            instrs if isinstance(instrs, InstrStream) else InstrStream(instrs)
        )
        self.arrays = arrays
        self._columns = None

    @property
    def instrs(self) -> InstrView:
        return InstrView(self.stream)

    def __len__(self) -> int:
        return len(self.stream)

    def columns(self):
        """The stream lowered to columnar form, cached on first use.

        A built program's stream never changes, so the lowering runs at
        most once; every columnar analytic (timing, energy, memory,
        mix, report counters) and every re-replay of the same program
        (latency ablations, cluster topology sweeps) shares it.  The
        lowering runs in a ``platform.lower`` span.
        """
        if self._columns is None:
            with _span("platform.lower"):
                self._columns = lower_stream(self.stream)
        return self._columns

    def output(self, name: str) -> np.ndarray:
        """The final contents of an array (the program's result)."""
        return self.arrays[name].to_numpy()


class KernelBuilder:
    """Emit-and-execute builder for mini-ISA kernels.

    Every register is the destination of the instruction that creates
    it, so the stream's register count doubles as the next free id.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._stream = InstrStream()
        self._arrays: dict[str, ArrayRef] = {}
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
    # Emission: one row per instruction, straight into the stream
    # ------------------------------------------------------------------
    def _row(
        self, kind: int, value, srcs: tuple[int, ...], op: str | None = None,
        fmt: FPFormat | None = None, src_fmt: FPFormat | None = None,
        lanes: int = 1,
    ) -> Reg:
        """Emit a register-writing instruction; returns its new register."""
        stream = self._stream
        rid = stream.n_regs
        stream.n_regs = rid + 1
        stream.rows.extend((
            kind, rid, stream.op_id(op), stream.fmt_id(fmt),
            stream.fmt_id(src_fmt), lanes, 0, 0,
        ))
        stream.srcs.append(srcs)
        return Reg(rid, value)

    # ------------------------------------------------------------------
    # Integer / control instructions
    # ------------------------------------------------------------------
    def li(self, value: float | int) -> Reg:
        """Load an immediate into a fresh register (1 instruction)."""
        return self._row(_K_LI, value, ())

    def alu(self, value, *srcs: Reg) -> Reg:
        """One integer ALU instruction producing ``value``."""
        return self._row(_K_ALU, value, tuple([s.rid for s in srcs]))

    def branch(self, taken: bool, *srcs: Reg) -> None:
        """A conditional branch with a known outcome."""
        self._stream.rows.extend(
            (_K_BRANCH, -1, 0, 0, 0, 1, 0, 1 if taken else 0)
        )
        self._stream.srcs.append(tuple([s.rid for s in srcs]))

    def loop(self, n: int, soft: bool = False) -> Iterator[int]:
        """Iterate a counted loop, emitting the loop machinery.

        Uses a zero-overhead hardware loop when the nest depth allows and
        ``soft`` is False (two LOOP_SETUP instructions up front);
        otherwise emits an increment and a branch per iteration.
        """
        hw = not soft and self._loop_depth < HW_LOOP_LEVELS
        if n > 0 and hw:
            for _ in range(2):
                self._stream.rows.extend(
                    (_K_LOOP_SETUP, -1, 0, 0, 0, 1, 0, 0)
                )
                self._stream.srcs.append(())
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
        data = arr.data
        if lanes != 1:
            self._check_lanes(arr.fmt, lanes)
        if index < 0 or index + lanes > len(data):
            _out_of_bounds(arr, index, lanes)
        if lanes == 1:
            value = data[index]
        else:
            value = tuple(data[index : index + lanes])
        stream = self._stream
        fid = stream.fmt_ids.get(id(arr.fmt))
        if fid is None:
            fid = stream.fmt_id(arr.fmt)
        rid = stream.n_regs
        stream.n_regs = rid + 1
        stream.rows.extend(
            (_K_LOAD, rid, 0, fid, 0, lanes, arr.element_bytes * lanes, 0)
        )
        stream.srcs.append(())
        return Reg(rid, value)

    def store(
        self, arr: ArrayRef, index: int, reg: Reg, lanes: int = 1
    ) -> None:
        """Store ``lanes`` consecutive elements (1 memory access)."""
        data, fmt = arr.data, arr.fmt
        if lanes == 1:
            if index < 0 or index >= len(data):
                _out_of_bounds(arr, index, lanes)
            v = reg.value
            data[index] = v if fmt is None else quantize(float(v), fmt)
        else:
            self._check_lanes(fmt, lanes)
            if index < 0 or index + lanes > len(data):
                _out_of_bounds(arr, index, lanes)
            values = reg.value
            if len(values) != lanes:
                raise ValueError(
                    f"register holds {len(values)} lanes, store wants {lanes}"
                )
            for offset, v in enumerate(values):
                if fmt is not None:
                    v = quantize(float(v), fmt)
                data[index + offset] = v
        stream = self._stream
        fid = stream.fmt_ids.get(id(fmt))
        if fid is None:
            fid = stream.fmt_id(fmt)
        stream.rows.extend(
            (_K_STORE, -1, 0, fid, 0, lanes, arr.element_bytes * lanes, 0)
        )
        stream.srcs.append((reg.rid,))

    # ------------------------------------------------------------------
    # Floating-point instructions
    # ------------------------------------------------------------------
    def fconst(self, value: float, fmt: FPFormat) -> Reg:
        """Materialize an FP constant (1 instruction, no memory access)."""
        return self._row(_K_LI, quantize(float(value), fmt), (), fmt=fmt)

    def vconst(self, values: Sequence[float], fmt: FPFormat) -> Reg:
        """Materialize a packed SIMD constant (replicated immediate)."""
        self._check_lanes(fmt, len(values))
        out = tuple([quantize(float(v), fmt) for v in values])
        return self._row(_K_LI, out, (), fmt=fmt, lanes=len(values))

    def fp(self, op: str, fmt: FPFormat, a: Reg, b: Reg, lanes: int = 1) -> Reg:
        """ADD/SUB/MUL/CMP (any format) or DIV/SQRT (binary32, scalar)."""
        apply = _FP_OPS.get(op)
        if lanes == 1:
            x, y = a.value, b.value
            if isinstance(x, tuple) or isinstance(y, tuple):
                raise ValueError("scalar operation on a vector register")
            if apply is None:
                _unknown_op(op)
            value = quantize(apply(float(x), float(y)), fmt)
        else:
            self._check_lanes(fmt, lanes)
            va = _lanes_of(a.value, lanes)
            vb = _lanes_of(b.value, lanes)
            if apply is None:
                _unknown_op(op)
            value = tuple([quantize(apply(x, y), fmt) for x, y in zip(va, vb)])
        stream = self._stream
        oid = stream.op_ids.get(op)
        if oid is None:
            oid = stream.op_id(op)
        fid = stream.fmt_ids.get(id(fmt))
        if fid is None:
            fid = stream.fmt_id(fmt)
        rid = stream.n_regs
        stream.n_regs = rid + 1
        stream.rows.extend((_K_FP, rid, oid, fid, 0, lanes, 0, 0))
        stream.srcs.append((a.rid, b.rid))
        return Reg(rid, value)

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
        return self._row(
            _K_FP, out[0] if lanes == 1 else out, (a.rid, b.rid, c.rid),
            op="fma", fmt=fmt, lanes=lanes,
        )

    def fsqrt(self, fmt: FPFormat, a: Reg) -> Reg:
        """Sequential square root (binary32 only on this platform)."""
        value = quantize(
            float(a.value) ** 0.5 if float(a.value) >= 0 else float("nan"),
            fmt,
        )
        return self._row(_K_FP, value, (a.rid,), op="sqrt", fmt=fmt)

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
        return self._row(
            _K_CAST, out[0] if lanes == 1 else out, (reg.rid,), op=op,
            fmt=dst_fmt, src_fmt=src_fmt, lanes=lanes,
        )

    # ------------------------------------------------------------------
    def program(self) -> Program:
        """Finish building and hand the trace to the platform."""
        return Program(self.name, self._stream, self._arrays)

    @property
    def instruction_count(self) -> int:
        return len(self._stream)

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


def _out_of_bounds(arr: ArrayRef, index: int, lanes: int):
    raise IndexError(
        f"{arr.name}[{index}:{index + lanes}] out of bounds "
        f"(len {len(arr.data)})"
    )


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


def _unknown_op(op: str):
    raise ValueError(f"unknown FP operation {op!r}")
