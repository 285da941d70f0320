"""Kernel builder: writes mini-ISA programs.

The builder plays the role of the compiler in the paper's methodology
(§V-A: GCC with a RISC-V backend, plus manual accounting for the formats
GCC cannot emit).  Application kernels are written against this API,
and the builder **emits** the dynamic instruction stream the
PULPino-like core would execute, which the pipeline model then times.
Each instruction goes straight into the stream's column buffers
(:class:`~repro.hardware.columnar.InstrStream`: one flat int64 row of
fixed fields plus a source-register tuple), with ops and formats
interned as they are first used, so lowering the program takes a few
array operations and no :class:`Instr` object is ever built.

The builder computes no values: a kernel's cost depends only on its
instruction stream, and its numerical output is the numeric form's
business (:mod:`repro.apps`).  A :class:`Reg` is a register id
and a lane count, and an :class:`ArrayRef` is a name, a format and a
length.  The value arguments of :meth:`~KernelBuilder.alloc`,
:meth:`~KernelBuilder.li`, :meth:`~KernelBuilder.alu`,
:meth:`~KernelBuilder.fconst` and :meth:`~KernelBuilder.vconst` are
accepted for a value-computing subclass (the test suite's oracle) and
otherwise ignored.  Loops use RI5CY hardware loops when the nest depth
allows (two levels), else a software compare-and-branch per iteration.

A loop comes in two forms with the same emitted stream.
:meth:`KernelBuilder.loop` runs its body once per iteration.
:meth:`KernelBuilder.sweep` is for loops whose iterations are
independent: the body runs once, on int64 index arrays, each emit
method records one template row, and the rows are laid out when the
outermost sweep closes.  When no branch in the nest depends on an
index, only iteration 0 is laid out, and the stream stores it once
with the trip count (:class:`~repro.hardware.columnar.Span`), and so
is every sweep nested in it, as a child span inside its parent's
template.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core import FPFormat
from repro.telemetry import span as _span

from .columnar import ROW, InstrStream, InstrView, Span, lower_stream
from .fpu.ops import ARITH_OPS, COMPARE_OPS
from .isa import Instr, Kind

__all__ = ["Reg", "ArrayRef", "KernelBuilder", "Program"]

#: Maximum hardware-loop nesting depth (RI5CY has two lp register sets).
HW_LOOP_LEVELS = 2

#: Maximum sweep nesting depth: every sweep index array has this many
#: axes, one per level, so indices of nested sweeps broadcast.
SWEEP_DEPTH = 3

_K_ALU = int(Kind.ALU)
_K_LI = int(Kind.LI)
_K_LOAD = int(Kind.LOAD)
_K_STORE = int(Kind.STORE)
_K_FP = int(Kind.FP)
_K_CAST = int(Kind.CAST)
_K_BRANCH = int(Kind.BRANCH)
_K_LOOP_SETUP = int(Kind.LOOP_SETUP)

#: The two-operand FP operators :meth:`KernelBuilder.fp` emits.
_FP_BINARY_OPS = frozenset((*ARITH_OPS, *COMPARE_OPS, "div"))


class Reg:
    """A virtual register.

    ``lanes`` is static: 1 for a scalar FP/int register, 2 or 4 for a
    packed-SIMD one.
    """

    __slots__ = ("rid", "lanes")

    def __init__(self, rid: int, lanes: int = 1) -> None:
        self.rid = rid
        self.lanes = lanes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Reg(r{self.rid}, lanes={self.lanes})"


class _SweepReg(Reg):
    """A register written inside a sweep.  It has one id per iteration,
    laid out when the outermost sweep closes, and cannot be read after
    that."""

    __slots__ = ("row",)

    def __init__(self, row: "_Row", lanes: int) -> None:
        self.row = row
        self.lanes = lanes

    @property
    def rid(self):
        # Only the loop form reads ids, and it runs outside every sweep.
        _closed_sweep_read()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepReg(lanes={self.lanes})"


class _Row:
    """One instruction of a sweep's iteration template: the fixed row
    fields, the source registers, the branch outcome, and (once laid
    out) its row and register offsets within an iteration."""

    __slots__ = ("sweep", "fields", "srcs", "taken", "writes",
                 "off", "reg_off")

    def __init__(self, sweep, fields, srcs, taken, writes) -> None:
        self.sweep = sweep
        self.fields = fields
        self.srcs = srcs
        self.taken = taken
        self.writes = writes


class _Sweep:
    """One sweep: its trip count, index array and iteration template
    (rows and nested sweeps, in emission order).  ``n`` counts the
    iterations layout writes out: ``trips``, or 1 for a sweep stored
    once.  Layout sets the iteration's row and register counts, the
    sweep's total stored rows (``span``) and each iteration's first
    register (``it_reg``)."""

    __slots__ = ("n", "trips", "once", "hw", "depth", "idx", "items",
                 "closed", "off", "reg_off", "iter_rows", "iter_regs",
                 "span", "it_reg")

    def __init__(self, n: int, hw: bool, parent: "_Sweep | None") -> None:
        self.n = self.trips = n
        self.once = False
        self.hw = hw
        self.depth = 0 if parent is None else parent.depth + 1
        if self.depth >= SWEEP_DEPTH:
            raise ValueError(f"sweeps nest at most {SWEEP_DEPTH} deep")
        shape = [1] * SWEEP_DEPTH
        shape[self.depth] = n
        self.idx = np.arange(n, dtype=np.int64).reshape(shape)
        self.idx.setflags(write=False)
        self.items: list = []
        self.closed = False


class ArrayRef:
    """A data-memory array bound to one storage format.

    ``fmt is None`` denotes an int32 array (labels, indices).
    """

    __slots__ = ("name", "fmt", "length", "element_bytes")

    def __init__(self, name: str, fmt: FPFormat | None, length: int) -> None:
        self.name = name
        self.fmt = fmt
        self.length = length
        self.element_bytes = 4 if fmt is None else fmt.storage_bytes

    def __len__(self) -> int:
        return self.length


class Program:
    """An emitted instruction stream plus its data arrays.

    ``instrs`` is a list of :class:`Instr` (hand-written streams, idle
    cores) or the :class:`InstrStream` a builder emitted into.  The
    program keeps the stream in that emission form, each repeating
    sweep stored once: :attr:`instrs` is a read-only view of the
    expanded stream that builds :class:`Instr` objects on demand (its
    ``len`` expands nothing), and :meth:`columns` is the lowered form.
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
        lowering runs in a ``platform.lower`` span, which records the
        expanded ``rows`` and the ``stored_rows`` it lowers.
        """
        if self._columns is None:
            with _span("platform.lower") as sp:
                self._columns = lower_stream(self.stream)
                if sp is not None:
                    sp.attrs["rows"] = self._columns.n
                    sp.attrs["stored_rows"] = self.stream.stored
        return self._columns


class KernelBuilder:
    """Emitting builder for mini-ISA kernels.

    Every register is the destination of the instruction that creates
    it, so the stream's register count doubles as the next free id.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._stream = InstrStream()
        self._arrays: dict[str, ArrayRef] = {}
        self._loop_depth = 0
        #: The innermost open sweep, or None outside every sweep.
        self._sweep: _Sweep | None = None

    # ------------------------------------------------------------------
    # Data allocation (no instructions emitted: static data layout)
    # ------------------------------------------------------------------
    def alloc(
        self, name: str, values: Sequence[float] | np.ndarray,
        fmt: FPFormat | None,
    ) -> ArrayRef:
        """Allocate an array initialised to ``values`` (the builder
        keeps only their count)."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already allocated")
        ref = ArrayRef(name, fmt, int(np.size(values)))
        self._arrays[name] = ref
        return ref

    def zeros(self, name: str, n: int, fmt: FPFormat | None) -> ArrayRef:
        """Allocate an output array of ``n`` zero elements."""
        return self.alloc(name, np.zeros(n), fmt)

    # ------------------------------------------------------------------
    # Emission: one row per instruction, straight into the stream (or,
    # inside a sweep, one template row for every iteration)
    # ------------------------------------------------------------------
    def _row(
        self, kind: int, srcs: tuple[Reg, ...], op: str | None = None,
        fmt: FPFormat | None = None, src_fmt: FPFormat | None = None,
        lanes: int = 1, reg_lanes: int | None = None,
    ) -> Reg:
        """Emit a register-writing instruction; returns its new register.

        ``reg_lanes`` is the new register's lane count when it differs
        from the instruction's (lane shuffles are scalar ALU work).
        """
        if reg_lanes is None:
            reg_lanes = lanes
        stream = self._stream
        oid = stream.op_ids.get(op)
        if oid is None:
            oid = stream.op_id(op)
        fid = stream.fmt_ids.get(id(fmt))
        if fid is None:
            fid = stream.fmt_id(fmt)
        sfid = stream.fmt_ids.get(id(src_fmt))
        if sfid is None:
            sfid = stream.fmt_id(src_fmt)
        if self._sweep is not None:
            return self._record((kind, oid, fid, sfid, lanes), 0, srcs,
                                reg_lanes)
        rid = stream.n_regs
        stream.n_regs = rid + 1
        stream.rows.extend((kind, rid, oid, fid, sfid, lanes, 0, 0))
        stream.srcs.append(tuple([s.rid for s in srcs]))
        return Reg(rid, reg_lanes)

    def _control(self, kind: int, srcs: tuple[Reg, ...], taken=0) -> None:
        """Emit an instruction that writes no register."""
        if self._sweep is not None:
            self._record((kind, 0, 0, 0, 1), 0, srcs, taken=taken,
                         writes=False)
            return
        self._stream.rows.extend((kind, -1, 0, 0, 0, 1, 0, int(taken)))
        self._stream.srcs.append(tuple([s.rid for s in srcs]))

    def _record(
        self, fields: tuple, width: int, srcs: tuple[Reg, ...],
        reg_lanes: int = 1, taken=0, writes: bool = True,
    ) -> "Reg | None":
        """Add one row to the open sweep's template.  ``fields`` are the
        row's kind, op id, format id, source-format id and lanes;
        ``taken`` is a branch's outcome, per iteration or for all."""
        sweep = self._sweep
        for s in srcs:
            if type(s) is _SweepReg and s.row.sweep.closed:
                _closed_sweep_read()
        kind, oid, fid, sfid, lanes = fields
        row = _Row(
            sweep, (kind, -1, oid, fid, sfid, lanes, width, 0), srcs,
            taken if isinstance(taken, np.ndarray) else int(taken), writes,
        )
        sweep.items.append(row)
        return _SweepReg(row, reg_lanes) if writes else None

    # ------------------------------------------------------------------
    # Integer / control instructions
    # ------------------------------------------------------------------
    def li(self, value: float | int) -> Reg:
        """Load the immediate ``value`` into a fresh register (1
        instruction)."""
        return self._row(_K_LI, ())

    def alu(self, value, *srcs: Reg) -> Reg:
        """One integer ALU instruction producing the scalar ``value``."""
        return self._row(_K_ALU, srcs)

    def select_lanes(self, reg: Reg, start: int, count: int) -> Reg:
        """Lanes ``start`` to ``start + count - 1`` of a packed register
        (one ALU shuffle; a scalar register when ``count`` is 1)."""
        if not 0 <= start < start + count <= reg.lanes:
            raise ValueError(
                f"lanes {start}..{start + count - 1} of a "
                f"{reg.lanes}-lane register"
            )
        return self._row(_K_ALU, (reg,), reg_lanes=count)

    def pack(self, *regs: Reg) -> Reg:
        """Pack scalar registers into one SIMD register (one ALU op)."""
        return self._row(_K_ALU, regs, reg_lanes=len(regs))

    def branch(self, taken: bool, *srcs: Reg) -> None:
        """A conditional branch with a known outcome."""
        self._control(_K_BRANCH, srcs, taken)

    def loop(self, n: int, soft: bool = False) -> Iterator[int]:
        """Iterate a counted loop, emitting the loop machinery.

        Uses a zero-overhead hardware loop when the nest depth allows and
        ``soft`` is False (two LOOP_SETUP instructions up front);
        otherwise emits an increment and a branch per iteration.
        """
        hw = not soft and self._loop_depth < HW_LOOP_LEVELS
        if n > 0 and hw:
            self._control(_K_LOOP_SETUP, ())
            self._control(_K_LOOP_SETUP, ())
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

    def sweep(self, n: int, soft: bool = False) -> Iterator[np.ndarray]:
        """A counted loop whose iterations are independent, built once.

        Emits exactly what :meth:`loop` emits for the same body --
        rows, registers and intern tables, as the expanded stream reads
        them -- but runs the body once, with an int64 index array (``n``
        values on the axis of this nest level) in place of the loop
        index; indices of nested sweeps broadcast against each other.
        Every emit method records one template row, and the rows are
        laid out when the outermost sweep closes, with register ids
        ``base + iteration * regs_per_iteration + slot``.  Unless a
        branch in the nest depends on an index, every iteration emits
        iteration 0's rows (up to those ids), so only iteration 0 is
        laid out, and the stream stores it as a span -- nested sweeps
        too, as child spans; otherwise every iteration is.

        The body must not branch in Python on the index, and a register
        made inside a sweep must not be read after the sweep closes
        (that raises).  For the iterations to be independent, the nest
        must also load no array element it stores and store no element
        twice; the builder computes no values, so it leaves those two
        rules to its callers (the test suite's value oracle checks
        them).

        Like :meth:`loop`, a sweep is a hardware loop when the nest
        depth allows and ``soft`` is False, and a software one
        otherwise.  A zero-trip sweep, like a zero-trip loop, skips its
        body.
        """
        if n <= 0:
            return
        parent = self._sweep
        hw = not soft and self._loop_depth < HW_LOOP_LEVELS
        sweep = _Sweep(n, hw, parent)
        self._sweep = sweep
        self._loop_depth += 1
        try:
            yield sweep.idx
        finally:
            self._loop_depth -= 1
            self._sweep = parent
            sweep.closed = True
        if parent is not None:
            parent.items.append(sweep)
        else:
            self._lay_out(sweep)

    # ------------------------------------------------------------------
    # Memory instructions
    # ------------------------------------------------------------------
    def load(self, arr: ArrayRef, index: int, lanes: int = 1) -> Reg:
        """Load ``lanes`` consecutive elements (1 memory access)."""
        if lanes != 1:
            self._check_lanes(arr.fmt, lanes)
        if self._sweep is not None:
            _check_sweep_bounds(arr, index, lanes)
            return self._record(
                (_K_LOAD, 0, self._stream.fmt_id(arr.fmt), 0, lanes),
                arr.element_bytes * lanes, (), lanes,
            )
        if index < 0 or index + lanes > arr.length:
            _out_of_bounds(arr, index, lanes)
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
        return Reg(rid, lanes)

    def store(self, arr: ArrayRef, index: int, reg: Reg) -> None:
        """Store the register's lanes to consecutive elements (1 memory
        access)."""
        fmt, lanes = arr.fmt, reg.lanes
        if lanes != 1:
            self._check_lanes(fmt, lanes)
        if self._sweep is not None:
            _check_sweep_bounds(arr, index, lanes)
            self._record(
                (_K_STORE, 0, self._stream.fmt_id(fmt), 0, lanes),
                arr.element_bytes * lanes, (reg,), writes=False,
            )
            return
        if index < 0 or index + lanes > arr.length:
            _out_of_bounds(arr, index, lanes)
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
        return self._row(_K_LI, (), fmt=fmt)

    def vconst(self, values: Sequence[float], fmt: FPFormat) -> Reg:
        """Materialize a packed SIMD constant (replicated immediate)."""
        self._check_lanes(fmt, len(values))
        return self._row(_K_LI, (), fmt=fmt, lanes=len(values))

    def fp(self, op: str, fmt: FPFormat, a: Reg, b: Reg) -> Reg:
        """ADD/SUB/MUL/CMP (any format) or DIV (binary32, scalar), on
        as many lanes as the operands hold."""
        lanes = a.lanes
        if b.lanes != lanes:
            _lane_mismatch(op, (a, b))
        if lanes != 1:
            self._check_lanes(fmt, lanes)
        if op not in _FP_BINARY_OPS:
            _unknown_op(op)
        stream = self._stream
        oid = stream.op_ids.get(op)
        if oid is None:
            oid = stream.op_id(op)
        fid = stream.fmt_ids.get(id(fmt))
        if fid is None:
            fid = stream.fmt_id(fmt)
        if self._sweep is not None:
            return self._record((_K_FP, oid, fid, 0, lanes), 0, (a, b),
                                lanes)
        rid = stream.n_regs
        stream.n_regs = rid + 1
        stream.rows.extend((_K_FP, rid, oid, fid, 0, lanes, 0, 0))
        stream.srcs.append((a.rid, b.rid))
        return Reg(rid, lanes)

    def fma(self, fmt: FPFormat, a: Reg, b: Reg, c: Reg) -> Reg:
        """Fused multiply-add ``a*b + c`` (single rounding, extension op)."""
        lanes = a.lanes
        if b.lanes != lanes or c.lanes != lanes:
            _lane_mismatch("fma", (a, b, c))
        self._check_lanes(fmt, lanes)
        return self._row(_K_FP, (a, b, c), op="fma", fmt=fmt, lanes=lanes)

    def fsqrt(self, fmt: FPFormat, a: Reg) -> Reg:
        """Sequential square root (binary32 only on this platform)."""
        if a.lanes != 1:
            raise ValueError("sqrt of a vector register")
        return self._row(_K_FP, (a,), op="sqrt", fmt=fmt)

    def fdiv(self, fmt: FPFormat, a: Reg, b: Reg) -> Reg:
        """Sequential division (binary32 only on this platform)."""
        return self.fp("div", fmt, a, b)

    def cast(
        self, reg: Reg, src_fmt: FPFormat | None, dst_fmt: FPFormat | None,
    ) -> Reg:
        """FP<->FP or FP<->int conversion of every lane of ``reg`` (1
        cycle on the cast slices).

        FP->int converts like RISC-V ``fcvt.w``.
        """
        if src_fmt is None and dst_fmt is None:
            raise ValueError("cast needs at least one FP side")
        op = "cvt_ff"
        if src_fmt is None:
            op = "cvt_if"
        elif dst_fmt is None:
            op = "cvt_fi"
        return self._row(
            _K_CAST, (reg,), op=op, fmt=dst_fmt, src_fmt=src_fmt,
            lanes=reg.lanes,
        )

    # ------------------------------------------------------------------
    def program(self) -> Program:
        """Finish building and hand the trace to the platform."""
        if self._sweep is not None:
            raise ValueError("program() called inside an open sweep")
        return Program(self.name, self._stream, self._arrays)

    @property
    def instruction_count(self) -> int:
        return len(self._stream)

    # ------------------------------------------------------------------
    # Sweep layout: template rows -> stream rows (iteration 0 of a span)
    # ------------------------------------------------------------------
    def _lay_out(self, root: _Sweep) -> None:
        """Write a closed outermost sweep's rows into the stream.

        Every template row becomes one row per laid-out iteration of
        its sweep and of all enclosing ones.  Rows of one sweep
        iteration are evenly spaced in the stream, so the nest's rows
        are strided views of one buffer, and each sweep fills its
        template rows for all iterations with a few array operations.

        When every iteration's rows repeat iteration 0's -- a branch
        whose outcome depends on an index is the one way they can
        differ -- only iteration 0 is laid out, and the stream records
        it as a :class:`~repro.hardware.columnar.Span` with the trip
        count; every nested sweep is cut to its iteration 0 the same
        way and recorded as a child span of the one around it.  A soft
        loop stored once keeps its last branch, which falls through,
        right after its template.  Register ids keep the full stride:
        an iteration of a sweep owns the registers of all iterations of
        the sweeps nested in it.
        """
        stream = self._stream
        if _index_free(root):
            _first_iteration(root)
        n_rows, n_regs = _measure(root)
        base, row0 = stream.n_regs, stream.stored
        rows = np.empty((n_rows, ROW), dtype=np.int64)
        srcs = np.empty(n_rows, dtype=object)
        srcs.fill(())
        #: One int object per register the laid-out rows name, shared by
        #: every source tuple that names it (as the loop form's tuples
        #: share them).
        laid = (not root.hw) + root.n * root.iter_regs
        ids = np.arange(base, base + laid).astype(object)
        _place(root, rows, srcs, base, ids, base)
        if root.once:
            stream.spans.append(_span_of(root, row0))
        stream.rows.frombytes(memoryview(rows).cast("B"))
        stream.srcs.extend(srcs.tolist())
        stream.n_regs = base + n_regs

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


def _measure(sweep: _Sweep) -> tuple[int, int]:
    """Lay out one iteration of ``sweep`` (offsets of its rows and
    nested sweeps); returns the rows the sweep stores and the registers
    the whole sweep emits, every iteration's, loop machinery included."""
    rows = regs = 0
    for item in sweep.items:
        item.off, item.reg_off = rows, regs
        if type(item) is _Sweep:
            r, g = _measure(item)
        else:
            r, g = 1, int(item.writes)
        rows += r
        regs += g
    soft = not sweep.hw
    if soft:
        rows += 2  # counter increment and branch
        regs += 1
    sweep.iter_rows, sweep.iter_regs = rows, regs
    # Two LOOP_SETUPs or the counter init, the laid-out iterations, and
    # a stored-once soft loop's fall-through branch.
    sweep.span = (1 if soft else 2) + sweep.n * rows + (soft and sweep.once)
    return sweep.span, soft + sweep.trips * regs


def _rows(sweep: _Sweep) -> Iterator[_Row]:
    """The template rows of ``sweep`` and of the sweeps nested in it."""
    for item in sweep.items:
        if type(item) is _Sweep:
            yield from _rows(item)
        else:
            yield item


def _index_free(root: _Sweep) -> bool:
    """Whether no branch outcome in the nest depends on any index, so
    that every iteration of every sweep in it emits iteration 0's rows
    up to register ids.  (A soft sweep's own counter branch, made at
    layout, falls through on its last iteration: the span stores that
    row as its exception.)"""
    return all(
        type(row.taken) is int or bool((row.taken == row.taken.flat[0]).all())
        for row in _rows(root)
    )


def _first_iteration(root: _Sweep) -> None:
    """Cut the nest to iteration 0 of every sweep in it, for layout."""
    for row in _rows(root):
        if type(row.taken) is not int:
            row.taken = int(row.taken.flat[0])
    stack = [root]
    while stack:
        sweep = stack.pop()
        sweep.once, sweep.n = True, 1
        sweep.idx = sweep.idx[(slice(0, 1),) * SWEEP_DEPTH]
        stack += [item for item in sweep.items if type(item) is _Sweep]


def _span_of(sweep: _Sweep, row0: int) -> Span:
    """The :class:`Span` of a laid-out sweep stored once whose rows
    start at stored row ``row0`` (loop set-up or counter init first),
    with a child span per nested sweep."""
    start = row0 + (2 if sweep.hw else 1)
    return Span(
        start, sweep.iter_rows, sweep.trips, sweep.hw,
        int(np.ravel(sweep.it_reg)[0]), sweep.iter_regs,
        tuple(
            _span_of(item, start + item.off) for item in sweep.items
            if type(item) is _Sweep
        ),
    )


def _place(sweep: _Sweep, rows, srcs, reg, ids, base: int) -> None:
    """Fill the rows of ``sweep`` for every iteration.

    ``rows`` (``encl + (span, ROW)``) and ``srcs`` (``encl + (span,)``)
    are views of the nest's buffers with one leading axis per
    enclosing sweep; ``reg`` is the sweep's first register id (an int,
    or an array over the enclosing sweeps' axes).
    """
    if sweep.hw:
        rows[..., :2, :] = _SETUP_ROW
        pre = 2
    else:
        rows[..., 0, :] = _COUNTER_ROW
        rows[..., 0, 1] = _grid(reg, sweep.depth - 1)
        reg = reg + 1
        pre = 1
    grid = rows.shape[:-2] + (sweep.n,)
    stop = pre + sweep.n * sweep.iter_rows
    body = rows[..., pre:stop, :].reshape(grid + (sweep.iter_rows, ROW))
    sbody = srcs[..., pre:stop].reshape(grid + (sweep.iter_rows,))
    sweep.it_reg = reg + sweep.idx * sweep.iter_regs
    first = sweep.it_reg.reshape(grid)
    direct = [item for item in sweep.items if type(item) is _Row]
    if not sweep.hw:
        direct.extend(_counter_rows(sweep))
    if direct:
        body[..., [r.off for r in direct], :] = [r.fields for r in direct]
    writers = [r for r in direct if r.writes]
    if writers:
        body[..., [r.off for r in writers], 1] = (
            first[..., None] + [r.reg_off for r in writers]
        )
    by_arity: dict[int, list] = {}
    for r in direct:
        if type(r.taken) is not int or r.taken:
            body[..., r.off, 7] = _grid(r.taken, sweep.depth)
        if r.srcs:
            by_arity.setdefault(len(r.srcs), []).append(r)
    for arity, group in by_arity.items():
        cols = [
            _src_ids(sweep, group, j, first, ids, base) for j in range(arity)
        ]
        sbody[..., [r.off for r in group]] = np.fromiter(
            zip(*cols), dtype=object, count=len(cols[0]),
        ).reshape(grid + (len(group),))
    for item in sweep.items:
        if type(item) is _Sweep:
            span = slice(item.off, item.off + item.span)
            _place(item, body[..., span, :], sbody[..., span],
                   sweep.it_reg + item.reg_off, ids, base)
    if sweep.once and not sweep.hw:
        # The last iteration's branch falls through: the one row that
        # differs, stored after the template.
        rows[..., stop, :] = _BRANCH_ROW
        srcs[..., stop] = srcs[..., stop - 1]


def _src_ids(sweep: _Sweep, group: list, j: int, first, ids, base: int):
    """Source ``j`` of each row in ``group`` for every iteration, as
    the shared int objects, iteration-major."""
    col = np.empty(first.shape + (len(group),), dtype=np.int64)
    same, offs, outer, rids = [], [], [], []
    for c, r in enumerate(group):
        s = r.srcs[j]
        if type(s) is not _SweepReg:
            outer.append(c)
            rids.append(s.rid)
        elif s.row.sweep is sweep:
            same.append(c)
            offs.append(s.row.reg_off)
        else:
            col[..., c] = _grid(s.row.sweep.it_reg + s.row.reg_off,
                                sweep.depth)
    if same:
        col[..., same] = first[..., None] + offs
    if outer:
        col[..., outer] = base  # patched below with the registers' ids
    obj = ids[col - base]
    if outer:
        obj[..., outer] = np.array(rids, dtype=object)
    return obj.ravel().tolist()


def _counter_rows(sweep: _Sweep) -> list[_Row]:
    """The increment and branch a soft loop ends each iteration with.

    The increment reads the register just before the iteration's own:
    the previous increment, or the counter init before iteration 0.
    """
    prev = _Row(sweep, None, (), 0, True)
    prev.reg_off = -1
    step = _Row(sweep, _STEP_ROW, (_SweepReg(prev, 1),), 0, True)
    step.off, step.reg_off = sweep.iter_rows - 2, sweep.iter_regs - 1
    branch = _Row(sweep, _BRANCH_ROW, (_SweepReg(step, 1),),
                  sweep.idx < sweep.trips - 1, False)
    branch.off = sweep.iter_rows - 1
    return [step, branch]


def _grid(x, depth: int):
    """An index-shaped array cut to the axes of sweeps 0..``depth``
    (the rest are length 1); ints pass through."""
    if isinstance(x, np.ndarray):
        return x.reshape(x.shape[:depth + 1])
    return x


_SETUP_ROW = (_K_LOOP_SETUP, -1, 0, 0, 0, 1, 0, 0)
_COUNTER_ROW = (_K_LI, 0, 0, 0, 0, 1, 0, 0)
_STEP_ROW = (_K_ALU, 0, 0, 0, 0, 1, 0, 0)
_BRANCH_ROW = (_K_BRANCH, -1, 0, 0, 0, 1, 0, 0)


def _closed_sweep_read():
    raise ValueError("register made inside a sweep read after it closed")


def _lane_mismatch(op: str, regs: tuple[Reg, ...]):
    raise ValueError(
        f"{op} operands have different lane counts "
        f"({', '.join(str(r.lanes) for r in regs)})"
    )


def _check_sweep_bounds(arr: ArrayRef, index, lanes: int) -> None:
    """Bounds-check a sweep's access at every iteration's index."""
    index = np.asarray(index)
    lo, hi = int(index.min()), int(index.max())
    if lo < 0 or hi + lanes > arr.length:
        _out_of_bounds(arr, lo if lo < 0 else hi, lanes)


def _out_of_bounds(arr: ArrayRef, index: int, lanes: int):
    raise IndexError(
        f"{arr.name}[{index}:{index + lanes}] out of bounds "
        f"(len {arr.length})"
    )


def _unknown_op(op: str):
    raise ValueError(f"unknown FP operation {op!r}")
