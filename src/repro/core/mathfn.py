"""Math helpers on FlexFloat values and arrays.

The transprecision FPU implements only ADD/SUB/MUL and conversions
(paper §IV); anything else (square roots, exponentials, division) runs on
the core as binary32 library code.  These helpers keep emulation
convenient -- they evaluate in double precision and sanitize the result --
while recording the operation under its own name so the analysis can
price it separately from slice arithmetic.
"""

from __future__ import annotations

import math
from typing import Union

from . import ops
from .array import FlexFloatArray
from .rounding import fused_multiply_add
from .stats import record_op
from .value import FlexFloat

__all__ = ["sqrt", "exp", "log", "fabs", "fmin", "fmax", "clamp", "fma"]

FF = Union[FlexFloat, FlexFloatArray]


def _unary(x: FF, name: str, scalar_fn) -> FF:
    if isinstance(x, FlexFloatArray):
        record_op(x.fmt, name, x.size)
        # Pass the payload, not to_numpy(): the ufunc writes a fresh
        # buffer and never the input, so no defensive copy is needed.
        return FlexFloatArray._wrap(
            ops.unary_array(name, x._data, x.fmt), x.fmt
        )
    record_op(x.fmt, name)
    try:
        raw = scalar_fn(float(x))
    except ValueError:
        raw = math.nan
    except OverflowError:
        raw = math.inf
    return FlexFloat(raw, x.fmt)


def sqrt(x: FF) -> FF:
    """Square root, sanitized to the operand's format."""
    return _unary(x, "sqrt", math.sqrt)


def exp(x: FF) -> FF:
    """Exponential, sanitized to the operand's format."""
    return _unary(x, "exp", math.exp)


def log(x: FF) -> FF:
    """Natural logarithm, sanitized to the operand's format."""
    return _unary(x, "log", math.log)


def fabs(x: FF) -> FF:
    """Absolute value (free in hardware: sign-bit clear; not counted)."""
    return abs(x)


def fmin(a: FlexFloat, b: FlexFloat) -> FlexFloat:
    """Minimum of two same-format values (a comparison, not an FPU op)."""
    return a if a <= b else b


def fmax(a: FlexFloat, b: FlexFloat) -> FlexFloat:
    """Maximum of two same-format values."""
    return a if a >= b else b


def clamp(x: FlexFloat, low: float, high: float) -> FlexFloat:
    """Clamp ``x`` into ``[low, high]`` using format-sanitized bounds."""
    if x < low:
        return FlexFloat(low, x.fmt)
    if x > high:
        return FlexFloat(high, x.fmt)
    return x


def fma(a: FlexFloat, b: FlexFloat, c: FlexFloat) -> FlexFloat:
    """Fused multiply-add ``a*b + c`` with a *single* rounding.

    An extension beyond the paper's ADD/SUB/MUL unit (its successors add
    fused operations).  The rounding is
    :func:`repro.core.rounding.fused_multiply_add`, shared with the
    kernel builder and the FPU model; formats with more than
    ``FMA_MAX_MAN_BITS`` mantissa bits are rejected.
    """
    if a.fmt != b.fmt or a.fmt != c.fmt:
        from .value import FormatMismatchError

        raise FormatMismatchError(a.fmt, b.fmt if a.fmt == c.fmt else c.fmt,
                                  "fma")
    result = fused_multiply_add(float(a), float(b), float(c), a.fmt)
    record_op(a.fmt, "fma")
    return FlexFloat._from_raw(result, a.fmt)
