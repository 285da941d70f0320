"""Shared infrastructure for the six evaluation applications.

Every application exists in two coupled forms:

* a **numeric** form built on :class:`repro.core.FlexFloatArray` /
  :class:`repro.core.FlexFloat` -- fast emulation used by the precision
  tuner and by the Fig. 5 operation-breakdown statistics; and
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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Sequence, Union

import numpy as np

from repro.core import (
    BINARY32,
    BINARY64,
    FlexFloat,
    FlexFloatArray,
    FPFormat,
)
from repro.hardware import ArrayRef, KernelBuilder, Program, Reg
from repro.tuning import VarSpec

from .data import SCALES, AppScale

__all__ = [
    "TransprecisionApp",
    "wider",
    "promote",
    "ensure_fmt",
    "vcast",
    "reduce_lanes",
    "accumulate",
    "lane_blocks",
    "lanes_for",
    "partition_range",
]

FF = Union[FlexFloat, FlexFloatArray]


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


def promote(a: FF, b: FF) -> tuple[FF, FF, FPFormat]:
    """Cast the narrower of two emulation operands to the wider format."""
    target = wider(a.fmt, b.fmt)
    if a.fmt != target:
        a = a.cast(target)
    if b.fmt != target:
        b = b.cast(target)
    return a, b, target


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
    #: Whether the off-the-shelf code has vectorizable regions at all
    #: (JACOBI does not, per Fig. 5).
    vectorizable: bool = True
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
    def run_numeric(
        self, binding: Mapping[str, FPFormat], input_id: int = 0
    ) -> np.ndarray:
        """FlexFloat-emulated execution under a format binding."""

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
