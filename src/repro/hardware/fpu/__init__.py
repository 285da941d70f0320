"""Transprecision FPU model (paper Fig. 3): slices, latencies, energies.

The replay prices every FP instruction with these tables; the values an
instruction computes are the numeric forms' business, not this model's.
"""

from .energy import (
    ARITH_ENERGY_PJ,
    SEQUENTIAL_ENERGY_PJ,
    cast_energy_pj,
    op_energy_pj,
)
from .occupancy import FpuOccupancy
from .ops import (
    ARITH_OPS,
    CAST_OPS,
    COMPARE_OPS,
    SEQUENTIAL_LATENCY,
    SEQUENTIAL_OPS,
    arithmetic_latency,
    cast_latency,
    sequential_latency,
    simd_lanes,
    supports,
)
from .slices import SLICE8, SLICE16, SLICE32, SLICES, Slice, slice_for

__all__ = [
    "ARITH_OPS",
    "CAST_OPS",
    "COMPARE_OPS",
    "SEQUENTIAL_OPS",
    "SEQUENTIAL_LATENCY",
    "arithmetic_latency",
    "cast_latency",
    "sequential_latency",
    "simd_lanes",
    "supports",
    "Slice",
    "SLICE32",
    "SLICE16",
    "SLICE8",
    "SLICES",
    "slice_for",
    "ARITH_ENERGY_PJ",
    "SEQUENTIAL_ENERGY_PJ",
    "cast_energy_pj",
    "op_energy_pj",
    "FpuOccupancy",
]
