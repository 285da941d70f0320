"""Directed rounding modes for the quantizer (extension).

The paper's unit rounds to nearest-even only; its successor (the FPnew
line of transprecision FPUs) implements the full IEEE 754 set.  This
module extends :func:`repro.core.quantize.quantize` with the directed
modes so format exploration can also study rounding-mode sensitivity:

* ``nearest_even`` -- IEEE round-to-nearest, ties to even (the default
  everywhere else in the library);
* ``toward_zero`` -- truncation (RTZ);
* ``toward_positive`` / ``toward_negative`` -- directed modes (RTP/RTN).

It also holds :func:`fused_multiply_add`, the one rounding behind every
fused multiply-add (library, kernel builder and FPU model), which rounds
its binary64 sum to odd so that the final rounding is the only one.
"""

from __future__ import annotations

import math
import struct

from . import ops
from .formats import FPFormat
from .quantize import _decompose, quantize

__all__ = [
    "ROUNDING_MODES",
    "quantize_mode",
    "FMA_MAX_MAN_BITS",
    "fused_multiply_add",
]

#: Widest mantissa :func:`fused_multiply_add` accepts: two significands
#: of ``man_bits + 1`` bits multiply exactly in binary64's 53 bits only
#: while ``2 * (man_bits + 1) <= 53``.
FMA_MAX_MAN_BITS = 25

ROUNDING_MODES = (
    "nearest_even",
    "toward_zero",
    "toward_positive",
    "toward_negative",
)


def _directed_shift(value: int, shift: int, round_up: bool) -> int:
    """Shift right, rounding down (truncate) or up (away) as requested."""
    if shift <= 0:
        return value << (-shift)
    rem = value & ((1 << shift) - 1)
    out = value >> shift
    if round_up and rem:
        out += 1
    return out


def quantize_mode(x: float, fmt: FPFormat, mode: str = "nearest_even"
                  ) -> float:
    """Quantize with an explicit rounding mode.

    ``nearest_even`` delegates to the standard quantizer; the directed
    modes share its exact integer pipeline but replace the rounding
    decision.  Overflow behaviour follows IEEE 754: RTZ and the
    away-facing directed mode clamp to the largest finite value instead
    of producing infinity when the direction points back toward zero.
    """
    if mode == "nearest_even":
        return quantize(x, fmt)
    if mode not in ROUNDING_MODES:
        raise ValueError(
            f"unknown rounding mode {mode!r}; choose from {ROUNDING_MODES}"
        )
    x = float(x)
    if x != x or math.isinf(x) or x == 0.0:
        return x

    sign, ex, sig53 = _decompose(x)
    # Direction of rounding for the magnitude.
    if mode == "toward_zero":
        up = False
    elif mode == "toward_positive":
        up = sign == 0
    else:  # toward_negative
        up = sign == 1

    q = max(ex, fmt.emin) - fmt.man_bits
    shift = q - ex + 52
    rounded = _directed_shift(sig53, shift, up)
    if rounded == 0:
        return -0.0 if sign else 0.0
    if rounded.bit_length() - 1 + q > fmt.emax:
        if up:
            return -math.inf if sign else math.inf
        magnitude = fmt.max_value
    else:
        magnitude = math.ldexp(rounded, q)
    return -magnitude if sign else magnitude


def _sum_round_to_odd(a: float, b: float) -> float:
    """``a + b`` in binary64, rounded to odd rather than to nearest.

    Round to nearest gives one of the two doubles around the exact sum;
    when the sum is inexact (its TwoSum residual is non-zero) and that
    double's last bit is even, the odd neighbour on the residual's side
    is the round-to-odd result.
    """
    total = a + b
    if not math.isfinite(total):
        return total
    b_part = total - a
    residual = (a - (total - b_part)) + (b - b_part)
    if residual and not struct.unpack("<Q", struct.pack("<d", total))[0] & 1:
        total = math.nextafter(total, math.copysign(math.inf, residual))
    return total


def fused_multiply_add(x: float, y: float, z: float, fmt: FPFormat) -> float:
    """``x*y + z`` rounded once, to nearest even, into ``fmt``.

    ``x``, ``y`` and ``z`` must be representable in ``fmt``.  Their
    product is then exact in binary64, but the binary64 sum rounds, and
    rounding that to nearest again can break a tie the wrong way: in
    binary32, ``1.5 * (1 - 2**-23) + 2**-60`` would round to
    ``1.5 - 2**-22`` instead of ``1.5 - 2**-23``.  Rounding the sum to
    odd keeps the sticky information: with at least two spare bits,
    round-to-odd followed by round-to-nearest equals one rounding of the
    exact value (Boldo and Melquiond).  The final rounding runs on the
    active backend.
    """
    if fmt.man_bits > FMA_MAX_MAN_BITS:
        raise ValueError(
            f"fma rounds once only for formats with at most "
            f"{FMA_MAX_MAN_BITS} mantissa bits, not {fmt}"
        )
    return ops.quantize(_sum_round_to_odd(x * y, z), fmt)
