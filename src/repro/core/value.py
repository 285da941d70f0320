"""The FlexFloat scalar type (paper §III-A).

Mirrors the C++ ``flexfloat<e, m>`` template class in Python:

* every value is *backed by a native double* and kept sanitized, i.e. the
  stored double is always exactly representable in the instance's format;
* arithmetic between two FlexFloats of **different** formats raises
  :class:`FormatMismatchError` -- the Python analogue of the compile-time
  error the C++ template produces, which is what gives programmers
  fine-grained control over intermediate precision;
* plain Python ints/floats are accepted as operands (the paper provides
  implicit constructors for standard FP literals);
* casts between formats are explicit, via :meth:`FlexFloat.cast`;
* conversion back to a native float is explicit, via ``float(x)``.

Every arithmetic operation and cast reports to :mod:`repro.core.stats`
when a collector is active, and all arithmetic/quantization routes
through :mod:`repro.core.ops`, so the active session's backend executes
it.
"""

from __future__ import annotations

import math
from typing import Union

from . import ops
from .formats import FPFormat
from .stats import record_cast, record_op

__all__ = ["FlexFloat", "FormatMismatchError"]

Number = Union[int, float]


class FormatMismatchError(TypeError):
    """Raised when two FlexFloats of different formats meet in one operator.

    The C++ library rejects such programs at compile time; rejecting them
    at run time is the closest faithful behaviour an interpreted language
    can offer.  Insert an explicit ``x.cast(fmt)`` to mix formats.
    """

    def __init__(self, left: FPFormat, right: FPFormat, op: str) -> None:
        super().__init__(
            f"implicit cast between FlexFloat formats is not allowed: "
            f"{left} {op} {right}; insert an explicit .cast(...)"
        )
        self.left = left
        self.right = right
        self.op = op


class FlexFloat:
    """A floating-point value sanitized to an arbitrary ``(e, m)`` format."""

    __slots__ = ("_fmt", "_value")

    def __init__(self, value: Number | "FlexFloat", fmt: FPFormat) -> None:
        if isinstance(value, FlexFloat):
            # Explicit conversion constructor (records the cast).
            record_cast(value._fmt, fmt)
            raw = value._value
        else:
            raw = float(value)
        object.__setattr__(self, "_fmt", fmt)
        object.__setattr__(self, "_value", ops.quantize(raw, fmt))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fmt(self) -> FPFormat:
        """The format this value is sanitized to."""
        return self._fmt

    @property
    def bits(self) -> int:
        """The packed bit pattern of the value in its format."""
        return ops.encode(self._value, self._fmt)

    @classmethod
    def from_bits(cls, pattern: int, fmt: FPFormat) -> "FlexFloat":
        """Build a value from a packed bit pattern."""
        return cls(ops.decode(pattern, fmt), fmt)

    @classmethod
    def _from_raw(cls, value: float, fmt: FPFormat) -> "FlexFloat":
        """Wrap an already-sanitized double without re-quantizing."""
        out = object.__new__(cls)
        object.__setattr__(out, "_fmt", fmt)
        object.__setattr__(out, "_value", value)
        return out

    def cast(self, fmt: FPFormat) -> "FlexFloat":
        """Explicitly convert to another format (counted as a cast)."""
        record_cast(self._fmt, fmt)
        out = object.__new__(FlexFloat)
        object.__setattr__(out, "_fmt", fmt)
        object.__setattr__(out, "_value", ops.quantize(self._value, fmt))
        return out

    def __float__(self) -> float:
        return self._value

    def __int__(self) -> int:
        return int(self._value)

    def __bool__(self) -> bool:
        return bool(self._value)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Number | "FlexFloat", op: str) -> float:
        """Return the backing double of ``other``, enforcing format rules."""
        if isinstance(other, FlexFloat):
            if other._fmt != self._fmt:
                raise FormatMismatchError(self._fmt, other._fmt, op)
            return other._value
        if isinstance(other, (int, float)):
            # Implicit constructor from a standard FP literal: the operand
            # is first sanitized to this format, as the C++ implicit
            # conversion would do.
            return ops.quantize(float(other), self._fmt)
        return NotImplemented  # type: ignore[return-value]

    def _make(self, raw: float) -> "FlexFloat":
        out = object.__new__(FlexFloat)
        object.__setattr__(out, "_fmt", self._fmt)
        object.__setattr__(out, "_value", ops.quantize(raw, self._fmt))
        return out

    def _binary(self, other, op: str, swap: bool = False) -> "FlexFloat":
        rhs = self._coerce(other, op)
        if rhs is NotImplemented:
            return NotImplemented
        record_op(self._fmt, op)
        a, b = (rhs, self._value) if swap else (self._value, rhs)
        out = object.__new__(FlexFloat)
        object.__setattr__(out, "_fmt", self._fmt)
        object.__setattr__(
            out, "_value", ops.binary_scalar(op, a, b, self._fmt)
        )
        return out

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add", swap=True)

    def __sub__(self, other):
        return self._binary(other, "sub")

    def __rsub__(self, other):
        return self._binary(other, "sub", swap=True)

    def __mul__(self, other):
        return self._binary(other, "mul")

    def __rmul__(self, other):
        return self._binary(other, "mul", swap=True)

    def __truediv__(self, other):
        return self._binary(other, "div")

    def __rtruediv__(self, other):
        return self._binary(other, "div", swap=True)

    def __neg__(self) -> "FlexFloat":
        # Sign flips are free in hardware (sign-bit inversion); they are
        # not counted as FPU operations.
        return self._make(-self._value)

    def __pos__(self) -> "FlexFloat":
        return self

    def __abs__(self) -> "FlexFloat":
        return self._make(abs(self._value))

    # ------------------------------------------------------------------
    # Comparisons: exact on the backing doubles.  Cross-format comparison
    # is rejected like cross-format arithmetic.
    # ------------------------------------------------------------------
    def _cmp_value(self, other, op: str) -> float:
        if isinstance(other, FlexFloat):
            if other._fmt != self._fmt:
                raise FormatMismatchError(self._fmt, other._fmt, op)
            return other._value
        if isinstance(other, (int, float)):
            return float(other)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        rhs = self._cmp_value(other, "==")
        if rhs is NotImplemented:
            return NotImplemented
        return self._value == rhs

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other) -> bool:
        rhs = self._cmp_value(other, "<")
        if rhs is NotImplemented:
            return NotImplemented
        return self._value < rhs

    def __le__(self, other) -> bool:
        rhs = self._cmp_value(other, "<=")
        if rhs is NotImplemented:
            return NotImplemented
        return self._value <= rhs

    def __gt__(self, other) -> bool:
        rhs = self._cmp_value(other, ">")
        if rhs is NotImplemented:
            return NotImplemented
        return self._value > rhs

    def __ge__(self, other) -> bool:
        rhs = self._cmp_value(other, ">=")
        if rhs is NotImplemented:
            return NotImplemented
        return self._value >= rhs

    def __hash__(self) -> int:
        return hash((self._fmt, self._value))

    # ------------------------------------------------------------------
    def is_nan(self) -> bool:
        return math.isnan(self._value)

    def is_inf(self) -> bool:
        return math.isinf(self._value)

    def __repr__(self) -> str:
        width = (self._fmt.bits + 3) // 4
        return (
            f"{self._fmt!r}({self._value!r} "
            f"[0x{self.bits:0{width}x}])"
        )

