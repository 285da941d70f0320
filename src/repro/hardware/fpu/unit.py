"""Functional + analytical model of the SmallFloatUnit (paper Fig. 3).

The unit executes scalar or packed-SIMD operations on the four supported
formats, returning bit-exact results (via the FlexFloat quantizer)
together with the latency and energy the hardware would spend.  It also
keeps running counters per slice, which the tests use to verify operand
isolation (an operation only ever activates the slices of its format).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core import BINARY32, FPFormat, fused_multiply_add, quantize

from .energy import cast_energy_pj, op_energy_pj
from .ops import (
    ARITH_OPS,
    SEQUENTIAL_OPS,
    arithmetic_latency,
    cast_latency,
    sequential_latency,
    simd_lanes,
    supports,
)
from .slices import slice_for

__all__ = ["FPUResult", "TransprecisionFPU"]


@dataclass(frozen=True)
class FPUResult:
    """Outcome of one unit operation."""

    values: tuple[float, ...]
    latency: int
    energy_pj: float

    @property
    def value(self) -> float:
        """Convenience accessor for scalar results."""
        if len(self.values) != 1:
            raise ValueError("vector result; use .values")
        return self.values[0]


@dataclass
class TransprecisionFPU:
    """The transprecision floating-point unit.

    Example
    -------
    >>> from repro.core import BINARY8
    >>> fpu = TransprecisionFPU()
    >>> fpu.arith("add", BINARY8, (1.0, 2.0, 3.0, 4.0),
    ...           (0.5, 0.5, 0.5, 0.5)).values
    (1.5, 2.5, 3.5, 4.5)
    """

    #: Operations executed per slice name (activity counters).
    slice_activity: Counter = field(default_factory=Counter)
    #: Total energy spent, pJ.
    energy_pj: float = 0.0

    # ------------------------------------------------------------------
    def arith(
        self,
        op: str,
        fmt: FPFormat,
        a: tuple[float, ...] | float,
        b: tuple[float, ...] | float,
    ) -> FPUResult:
        """Execute ADD/SUB/MUL (or CMP) on one or more lanes.

        Operands may be scalars (1 lane) or tuples of up to
        ``simd_lanes(fmt)`` lanes; both operands must have the same lane
        count.  Results are sanitized to ``fmt`` exactly like hardware.
        """
        lanes_a = _as_lanes(a)
        lanes_b = _as_lanes(b)
        if len(lanes_a) != len(lanes_b):
            raise ValueError(
                f"lane mismatch: {len(lanes_a)} vs {len(lanes_b)}"
            )
        lanes = len(lanes_a)
        if not supports(fmt):
            raise ValueError(f"{fmt} is not implemented by the FPU")
        if lanes > simd_lanes(fmt):
            raise ValueError(
                f"{fmt} supports at most {simd_lanes(fmt)} lanes, got {lanes}"
            )
        if op in ARITH_OPS or op == "cmp":
            latency = 1 if op == "cmp" else arithmetic_latency(fmt)
        elif op in SEQUENTIAL_OPS:
            if fmt != BINARY32:
                raise ValueError(f"{op} is only available in binary32")
            if lanes != 1:
                raise ValueError(f"{op} is scalar-only")
            latency = sequential_latency(op)
        else:
            raise ValueError(f"unknown FPU operation {op!r}")

        # Hardware operands arrive as format bit patterns: sanitize the
        # inputs to the operation format before computing, then round the
        # result back.  This keeps the unit bit-identical to FlexFloat.
        values = tuple(
            quantize(_apply(op, quantize(x, fmt), quantize(y, fmt)), fmt)
            for x, y in zip(lanes_a, lanes_b)
        )
        energy = op_energy_pj(fmt, op, lanes)
        self._account(fmt, lanes, energy)
        return FPUResult(values, latency, energy)

    def fma(
        self,
        fmt: FPFormat,
        a: tuple[float, ...] | float,
        b: tuple[float, ...] | float,
        c: tuple[float, ...] | float,
    ) -> FPUResult:
        """Fused multiply-add ``a*b + c`` with a single rounding.

        Extension beyond the paper's unit (its successors fuse); lanes
        and latency follow the arithmetic path of the format's slice.
        """
        lanes_a, lanes_b, lanes_c = _as_lanes(a), _as_lanes(b), _as_lanes(c)
        if not len(lanes_a) == len(lanes_b) == len(lanes_c):
            raise ValueError("lane mismatch among fma operands")
        if not supports(fmt):
            raise ValueError(f"{fmt} is not implemented by the FPU")
        if len(lanes_a) > simd_lanes(fmt):
            raise ValueError(
                f"{fmt} supports at most {simd_lanes(fmt)} lanes"
            )
        values = tuple(
            fused_multiply_add(
                quantize(x, fmt), quantize(y, fmt), quantize(z, fmt), fmt
            )
            for x, y, z in zip(lanes_a, lanes_b, lanes_c)
        )
        energy = op_energy_pj(fmt, "fma", len(lanes_a))
        self._account(fmt, len(lanes_a), energy)
        return FPUResult(values, arithmetic_latency(fmt), energy)

    def convert(
        self,
        values: tuple[float, ...] | float,
        src: FPFormat | None,
        dst: FPFormat | None,
    ) -> FPUResult:
        """Execute a conversion (FP->FP, FP->int32 or int32->FP).

        ``src`` or ``dst`` may be None to denote the integer side.  All
        conversions are single-cycle.
        """
        lanes = _as_lanes(values)
        if src is None and dst is None:
            raise ValueError("cast needs at least one FP side")
        if src is not None:
            lanes = tuple(quantize(v, src) for v in lanes)
        if dst is None:  # FP -> int32: round to nearest, ties to even
            out = tuple(float(round(v)) for v in lanes)
        else:
            out = tuple(quantize(v, dst) for v in lanes)
        energy = cast_energy_pj(src, dst) * len(lanes)
        fmt_for_slice = dst if dst is not None else src
        self._account(fmt_for_slice, len(lanes), energy)
        return FPUResult(out, cast_latency(), energy)

    # ------------------------------------------------------------------
    def _account(self, fmt: FPFormat | None, lanes: int, energy: float) -> None:
        if fmt is not None and supports(fmt):
            self.slice_activity[slice_for(fmt).name] += lanes
        self.energy_pj += energy

    def reset(self) -> None:
        self.slice_activity.clear()
        self.energy_pj = 0.0


def _as_lanes(v) -> tuple[float, ...]:
    if isinstance(v, tuple):
        return v
    return (float(v),)


def _apply(op: str, x: float, y: float) -> float:
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "cmp":
        return 1.0 if x < y else 0.0
    if op == "div":
        return x / y if y != 0.0 else float("inf") if x > 0 else float("-inf")
    if op == "sqrt":
        return x ** 0.5 if x >= 0.0 else float("nan")
    raise ValueError(f"unknown FPU operation {op!r}")
