"""Shared infrastructure for the six evaluation applications.

Every application exists in two coupled forms:

* a **numeric** form, :meth:`TransprecisionApp.run_numeric_batch`,
  written over a leading candidate axis with :class:`Lockstep` -- fast
  emulation of several bindings at once, one row each, used by the
  precision tuner and by the Fig. 5 operation-breakdown statistics
  (:meth:`TransprecisionApp.run_numeric` is a batch of one); and
* a **kernel** form built on :class:`repro.hardware.KernelBuilder` --
  the mini-ISA instruction stream timed by the virtual platform for
  Figs. 6 and 7.  It emits instructions only: the numeric form owns the
  values, and a kernel whose control flow depends on data (knn's top-k
  selection) computes the values it branches on with numpy, in the
  kernel's operation order.

Both forms take the same *format binding* (variable name -> FPFormat).
The helpers here implement the compiler-like conventions both forms
share: operands of mixed formats are promoted to the wider format with
an explicit (counted) cast, and vectorizable regions execute packed when
the common format is narrower than 32 bits.

The tuner hands candidate bindings it knows are independent to
:meth:`TransprecisionApp.run_numeric_batch` together, and every app
runs them in one pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from repro.core import (
    BINARY32,
    BINARY64,
    FormatRows,
    FPFormat,
    collecting,
    record_cast,
    record_op,
)
from repro.core import ops
from repro.hardware import ArrayRef, KernelBuilder, Program, Reg
from repro.tuning import VarSpec

from .data import SCALES, AppScale

__all__ = [
    "TransprecisionApp",
    "wider",
    "ensure_fmt",
    "vcast",
    "reduce_lanes",
    "accumulate",
    "lane_blocks",
    "lanes_for",
    "partition_range",
    "Lockstep",
]

# ----------------------------------------------------------------------
# Format promotion rules (shared by numeric and kernel forms)
# ----------------------------------------------------------------------
def wider(a: FPFormat, b: FPFormat) -> FPFormat:
    """The format a compiler would promote mixed operands to.

    More total bits wins; at equal width (binary16 vs binary16alt) the
    wider exponent wins, so promotions never lose dynamic range.
    """
    if a == b:
        return a
    if a.bits != b.bits:
        return a if a.bits > b.bits else b
    return a if a.exp_bits >= b.exp_bits else b


def lanes_for(fmt: FPFormat) -> int:
    """SIMD lanes a vectorized region uses for a compute format."""
    if fmt.bits <= 8:
        return 4
    if fmt.bits <= 16:
        return 2
    return 1


def lane_blocks(length: int, lanes: int) -> list[tuple[int, int]]:
    """``(start, width)`` blocks covering ``length`` consecutive elements.

    Full blocks of ``lanes`` (1, 2 or 4) come first; the rest splits
    into blocks of 2 and then 1, so every block has a lane count the
    datapath packs.
    """
    blocks = []
    start = 0
    while start < length:
        while lanes > length - start:
            lanes //= 2
        blocks.append((start, lanes))
        start += lanes
    return blocks


def partition_range(total: int, n_parts: int, part: int) -> tuple[int, int]:
    """Contiguous balanced chunk ``[lo, hi)`` of ``range(total)``.

    The first ``total % n_parts`` parts get one extra element, the
    static block schedule every data-parallel kernel here uses.  Parts
    beyond ``total`` come out empty (``lo == hi``): an 8-core cluster
    on a 4-row image simply idles four cores.
    """
    if n_parts < 1:
        raise ValueError(f"need at least one part, got {n_parts}")
    if not 0 <= part < n_parts:
        raise ValueError(f"part {part} not in 0..{n_parts - 1}")
    base, extra = divmod(total, n_parts)
    lo = part * base + min(part, extra)
    hi = lo + base + (1 if part < extra else 0)
    return lo, hi


# ----------------------------------------------------------------------
# Kernel-side emit helpers
# ----------------------------------------------------------------------
def ensure_fmt(
    b: KernelBuilder, reg: Reg, src: FPFormat, dst: FPFormat
) -> Reg:
    """Emit a conversion when the formats differ (scalar or packed)."""
    if src == dst:
        return reg
    return b.cast(reg, src, dst)


def vcast(
    b: KernelBuilder, reg: Reg, src: FPFormat, dst: FPFormat
) -> list[Reg]:
    """Packed conversion, splitting when the destination outgrows 32 bits.

    Casting the register's lanes to a wider format may not fit one
    register; the result is returned as a list of registers, each
    holding ``32 // dst.bits`` lanes (the conversion slices produce one
    output word per instruction).
    """
    if src == dst:
        return [reg]
    lanes = reg.lanes
    out_lanes = max(32 // dst.bits, 1)
    if out_lanes >= lanes:
        return [b.cast(reg, src, dst)]
    parts: list[Reg] = []
    for start in range(0, lanes, out_lanes):
        # Model: a lane-select (ALU shuffle) feeds each conversion word.
        sel = b.select_lanes(reg, start, min(out_lanes, lanes - start))
        parts.append(b.cast(sel, src, dst))
    return parts


def reduce_lanes(b: KernelBuilder, reg: Reg, fmt: FPFormat) -> Reg:
    """Horizontal reduction of a packed accumulator to one scalar.

    RI5CY-style SIMD has no horizontal add: the compiler extracts lanes
    (one ALU shuffle each) and adds them as scalars, lanes-1 additions.
    """
    if reg.lanes == 1:
        return reg
    acc = b.select_lanes(reg, 0, 1)
    for lane in range(1, reg.lanes):
        acc = b.fp("add", fmt, acc, b.select_lanes(reg, lane, 1))
    return acc


def accumulate(
    b: KernelBuilder, fmt: FPFormat, acc: Reg, vacc: Reg | None, term: Reg
) -> tuple[Reg, Reg | None]:
    """Add one term of a sum over :func:`lane_blocks` into its scalar
    accumulator ``acc`` and packed accumulator ``vacc``.

    A scalar term adds into ``acc``; the first packed term becomes
    ``vacc`` and later ones of its width add into it; a narrower packed
    term reduces (:func:`reduce_lanes`) into ``acc``.
    """
    if term.lanes == 1:
        return b.fp("add", fmt, acc, term), vacc
    if vacc is None:
        return acc, term
    if term.lanes == vacc.lanes:
        return acc, b.fp("add", fmt, vacc, term)
    return b.fp("add", fmt, acc, reduce_lanes(b, term, fmt)), vacc


# ----------------------------------------------------------------------
# Numeric forms over a leading candidate axis
# ----------------------------------------------------------------------
class Lockstep:
    """Emulated arithmetic for several bindings at once, one row each.

    A lockstep numeric form keeps each variable as a float64 array whose
    leading axis has one row per binding, and each format as a
    :class:`~repro.core.FormatRows`; every operation is one call, for
    all rows, to the backend of the session that is current when the
    Lockstep is made.  While a collector is installed, each operation
    records, row by row, what that row's lone run records: counts in
    the row's own format, casts only where the row's two formats
    differ, and the vector flag its regions give (``vector``: one bool
    per row, or None for scalar work).
    """

    #: Interned FormatRows, keyed by each row's ``(exp_bits, man_bits,
    #: name)`` (``Stats`` keys on the name, which format equality
    #: ignores): a run gets the objects earlier runs made, so the
    #: identity-keyed caches downstream (the fast backend's per-row
    #: columns) hit across runs.  The table starts over when full.
    _interned: dict[tuple, FormatRows] = {}
    _INTERNED_MAX = 256

    def __init__(
        self, app: "TransprecisionApp",
        bindings: Sequence[Mapping[str, FPFormat]],
    ) -> None:
        self.rows = len(bindings)
        self._app = app
        self._bindings = bindings
        self._backend = ops.active_backend()
        self._counting = collecting()
        #: (id(src), id(dst)) -> (src, dst, rows whose formats differ,
        #: any such row); holding the FormatRows keeps their ids from
        #: being reused.
        self._moves: dict[tuple[int, int], tuple] = {}

    # -- formats ---------------------------------------------------------
    @classmethod
    def _rows(cls, formats) -> FormatRows:
        formats = tuple(formats)
        key = tuple((f.exp_bits, f.man_bits, f.name) for f in formats)
        rows = cls._interned.get(key)
        if rows is None:
            if len(cls._interned) >= cls._INTERNED_MAX:
                cls._interned.clear()
            rows = cls._interned[key] = FormatRows(formats)
        return rows

    def formats(self, name: str) -> FormatRows:
        """Each binding's format for variable ``name``."""
        return self._rows(self._app._fmt(b, name) for b in self._bindings)

    @classmethod
    def wider(cls, a: FormatRows, b: "FormatRows | FPFormat") -> FormatRows:
        """:func:`wider`, row by row (``b`` may be one format for all)."""
        return cls._rows(
            map(wider, a, b if isinstance(b, FormatRows) else repeat(b))
        )

    @staticmethod
    def packs(region: FormatRows, enabled: bool = True) -> tuple:
        """Per row: does a vectorizable region in ``region`` pack?"""
        return tuple(enabled and lanes_for(fmt) > 1 for fmt in region)

    # -- values ----------------------------------------------------------
    def per_row(self, values, fmt: FormatRows) -> np.ndarray:
        """``values`` on every row of the candidate axis, rounded to each
        row's format: an input, uncounted."""
        values = np.asarray(values, dtype=np.float64)
        return self._backend.quantize_array(
            np.broadcast_to(values, (self.rows,) + values.shape), fmt
        )

    def const(self, value: float, fmt: FormatRows) -> np.ndarray:
        """A ``(rows, 1)`` column of ``value`` rounded to each row's
        format: a literal operand (uncounted)."""
        return self.per_row([value], fmt)

    def op(self, name: str, a, b, fmt: FormatRows, vector=None):
        """One elementwise operator, rounded to each row's format."""
        out = self._backend.binary_array(name, a, b, fmt)
        self.count(fmt, name, out.size // self.rows, vector)
        return out

    def sqrt(self, values: np.ndarray, fmt: FormatRows, vector=None):
        out = self._backend.unary_array("sqrt", values, fmt)
        self.count(fmt, "sqrt", out.size // self.rows, vector)
        return out

    def sum(self, work: np.ndarray, fmt: FormatRows, vector=None):
        """Tree sum of the last axis, rounded after every level."""
        n = work.shape[-1]
        if n == 0:
            return np.zeros(work.shape[:-1])
        out = self._backend.tree_sum(work, fmt)
        self.count(fmt, "add", (n - 1) * (out.size // self.rows), vector)
        return out

    def count(self, fmt: FormatRows, op: str, n: int, vector=None) -> None:
        """Record ``n`` operations of ``op`` on each row, in its format:
        work that is counted but rounds nothing (a compare, a max)."""
        if self._counting:
            for r, f in enumerate(fmt):
                record_op(f, op, n, vector is not None and vector[r])

    def _move(self, src: FormatRows, dst: FormatRows) -> tuple:
        key = (id(src), id(dst))
        move = self._moves.get(key)
        if move is None:
            moved = tuple(s != t for s, t in zip(src, dst))
            move = self._moves[key] = (src, dst, moved, any(moved))
        return move

    def convert(self, values: np.ndarray, src: FormatRows,
                dst: FormatRows) -> np.ndarray:
        """Each row's values from ``src`` to ``dst``, uncounted: a
        literal, or values a :meth:`count_cast` accounts for."""
        if not self._move(src, dst)[3]:
            return values
        return self._backend.quantize_array(values, dst)

    def count_cast(self, src: FormatRows, dst: FormatRows, n: int,
                   vector=None) -> None:
        """Record ``n`` casts from ``src`` to ``dst`` on each row whose
        formats differ: a cast whose values are already converted (the
        kernel casts an array that has not changed since)."""
        if self._counting:
            moved = self._move(src, dst)[2]
            for r, (s, t) in enumerate(zip(src, dst)):
                if moved[r]:
                    record_cast(s, t, n, vector is not None and vector[r])

    def cast(self, values: np.ndarray, src: FormatRows, dst: FormatRows,
             vector=None) -> np.ndarray:
        """Convert each row from ``src`` to ``dst``.

        Skipped when no row's formats differ; on a row whose formats
        are equal the quantization is an exact no-op, and nothing is
        counted there.
        """
        self.count_cast(src, dst, values.size // self.rows, vector)
        return self.convert(values, src, dst)


# ----------------------------------------------------------------------
# The application contract
# ----------------------------------------------------------------------
class TransprecisionApp(ABC):
    """One evaluation kernel in both numeric and hardware form.

    Implements :class:`repro.tuning.variables.TunableProgram`, so every
    app can be handed directly to :class:`DistributedSearch`.
    """

    #: Application name (lower case, as in the paper's figures).
    name: str = ""
    #: Input sets available for tuning/refinement.
    num_inputs: int = 3
    #: Whether :meth:`partition` chunks the dominant loop across cores
    #: (False: the fallback runs the whole kernel on core 0).
    partitionable: bool = False

    def __init__(self, scale: str | AppScale = "small") -> None:
        self.scale = SCALES[scale] if isinstance(scale, str) else scale

    # Apps compare by value: two instances of one class with the same
    # scale and configuration run the same program, so the tuner's
    # session memo serves either one's evaluations to the other.
    def _identity(self) -> tuple:
        return (type(self), tuple(sorted(vars(self).items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransprecisionApp):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    # -- tuner-facing ---------------------------------------------------
    @abstractmethod
    def variables(self) -> Sequence[VarSpec]:
        """Declare the tunable variables (stable order)."""

    @abstractmethod
    def run_numeric_batch(
        self, bindings: Sequence[Mapping[str, FPFormat]], input_id: int = 0
    ) -> list[np.ndarray]:
        """The numeric form under each binding, in one pass: one output
        per binding, written over a leading candidate axis
        (:class:`Lockstep`).

        The contract: rows do not meet, so output ``r`` is byte-equal
        to ``run_numeric(bindings[r], input_id)``, and the ``Stats`` a
        collector receives are the sum of the lone runs'.
        """

    def run_numeric(
        self, binding: Mapping[str, FPFormat], input_id: int = 0
    ) -> np.ndarray:
        """The numeric form under one binding: a batch of one."""
        return self.run_numeric_batch([binding], input_id)[0]

    def run(
        self, binding: Mapping[str, FPFormat], input_id: int = 0
    ) -> np.ndarray:
        """TunableProgram protocol alias for :meth:`run_numeric`."""
        return self.run_numeric(binding, input_id)

    def reference(self, input_id: int = 0) -> np.ndarray:
        """Exact output: the numeric form with every variable binary64."""
        binding = {spec.name: BINARY64 for spec in self.variables()}
        return self.run_numeric(binding, input_id)

    # -- platform-facing -------------------------------------------------
    @abstractmethod
    def build_program(
        self,
        binding: Mapping[str, FPFormat],
        input_id: int = 0,
        vectorize: bool = True,
    ) -> Program:
        """Emit the mini-ISA kernel for the virtual platform."""

    def partition(
        self,
        n_cores: int,
        binding: Mapping[str, FPFormat],
        input_id: int = 0,
        vectorize: bool = True,
    ) -> list[Program]:
        """Data-parallel decomposition: one mini-ISA kernel per core.

        Partitionable apps chunk their dominant loop with
        :func:`partition_range` in :meth:`_partition_many`;
        ``partition(1, ...)`` is always the unpartitioned
        :meth:`build_program` stream, bit for bit.  Apps without a
        data-parallel form inherit the fallback: core 0 runs the whole
        kernel, the remaining cores idle (empty streams) -- a cluster
        replay then degenerates to the single-core numbers.

        Cores execute these streams *synchronization-free* on the
        cluster platform; per-core programs allocate full copies of
        the input arrays (the cluster's shared L1).  Only the streams
        matter for timing and energy, and no partitioned kernel's
        control flow depends on another core's results, except knn's
        merge, which computes the distances it ranks itself.
        """
        if n_cores < 1:
            raise ValueError(f"need at least one core, got {n_cores}")
        if n_cores == 1:
            return [self.build_program(binding, input_id, vectorize)]
        return self._partition_many(n_cores, binding, input_id, vectorize)

    def _partition_many(
        self,
        n_cores: int,
        binding: Mapping[str, FPFormat],
        input_id: int,
        vectorize: bool,
    ) -> list[Program]:
        """Decomposition hook for ``n_cores >= 2`` (see :meth:`partition`).

        Fallback for apps without a data-parallel form: core 0 runs the
        whole kernel, the remaining cores idle.
        """
        whole = self.build_program(binding, input_id, vectorize)
        return [whole] + [
            Program(f"{self.name}.c{core}", [], {})
            for core in range(1, n_cores)
        ]

    # -- conveniences ----------------------------------------------------
    def baseline_binding(self) -> dict[str, FPFormat]:
        """The paper's baseline: every variable in binary32."""
        return {spec.name: BINARY32 for spec in self.variables()}

    def _fmt(self, binding: Mapping[str, FPFormat], name: str) -> FPFormat:
        try:
            return binding[name]
        except KeyError:
            raise KeyError(
                f"{self.name}: binding misses variable {name!r}"
            ) from None
