"""The FlexFloat scalar and array types, kept as the numeric test oracle.

The paper's emulation library (§III-A) gives each format one type whose
every operation rounds to that format.  :class:`FlexFloat` mirrors the
C++ ``flexfloat<e, m>`` class value by value, and :class:`FlexFloatArray`
gives it numpy payloads: elementwise operators require matching formats
(:class:`FormatMismatchError` otherwise), casts are explicit, and
reductions round after every level of a balanced tree.  The shipped
numeric forms compute the same thing over a candidate axis
(:class:`repro.apps.base.Lockstep` on :class:`repro.core.FormatRows`);
these types compute it one binding at a time, which is what the
numeric-form oracles in :mod:`tests.oracles` are written on.

:func:`sqrt` records ``sqrt`` in its operand's format, and
:func:`fused_multiply_add` is the one rounding behind
:meth:`tests.oracles.ValueBuilder.fma`.  One value rounds through the
exact reference scalars of :mod:`repro.core.quantize`, on the operators
of :data:`SCALAR_OPS`; arrays round through :mod:`repro.core.ops`, so
:class:`FlexFloatArray` runs on whichever backend a test activates.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Iterator, Union

import numpy as np

from repro.core import ops
from repro.core.formats import FPFormat
from repro.core.quantize import decode, encode, quantize
from repro.core.stats import record_cast, record_op

__all__ = [
    "SCALAR_OPS",
    "FlexFloat",
    "FormatMismatchError",
    "FlexFloatArray",
    "sqrt",
    "FMA_MAX_MAN_BITS",
    "fused_multiply_add",
]

Number = Union[int, float]


def _ieee_div(a: float, b: float) -> float:
    """IEEE division on doubles: finite/0 is a signed infinity, and 0/0
    is the NaN ``np.divide`` gives, bit for bit, as on the array path."""
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(a, b))


#: The binary operators on raw doubles, before the result is rounded.
SCALAR_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _ieee_div,
}


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
        object.__setattr__(self, "_value", quantize(raw, fmt))

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
        return encode(self._value, self._fmt)

    @classmethod
    def from_bits(cls, pattern: int, fmt: FPFormat) -> "FlexFloat":
        """Build a value from a packed bit pattern."""
        return cls(decode(pattern, fmt), fmt)

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
        object.__setattr__(out, "_value", quantize(self._value, fmt))
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
            return quantize(float(other), self._fmt)
        return NotImplemented  # type: ignore[return-value]

    def _make(self, raw: float) -> "FlexFloat":
        out = object.__new__(FlexFloat)
        object.__setattr__(out, "_fmt", self._fmt)
        object.__setattr__(out, "_value", quantize(raw, self._fmt))
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
            out, "_value", quantize(SCALAR_OPS[op](a, b), self._fmt)
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



Operand = Union["FlexFloatArray", FlexFloat, int, float, np.ndarray]


class FlexFloatArray:
    """An n-dimensional array of values sanitized to one (e, m) format."""

    __slots__ = ("_fmt", "_data")

    def __init__(self, values, fmt: FPFormat) -> None:
        if isinstance(values, FlexFloatArray):
            # The conversion constructor is the elementwise cast.
            record_cast(values._fmt, fmt, values.size)
            data = ops.quantize_array(values._data, fmt)
        elif isinstance(values, FlexFloat):
            record_cast(values.fmt, fmt)
            data = ops.quantize_array(
                np.asarray(float(values), dtype=np.float64), fmt
            )
        else:
            data = ops.quantize_array(
                np.asarray(values, dtype=np.float64), fmt
            )
        object.__setattr__(self, "_fmt", fmt)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _wrap(cls, data: np.ndarray, fmt: FPFormat) -> "FlexFloatArray":
        """Build from an already-sanitized payload without re-quantizing."""
        out = object.__new__(cls)
        object.__setattr__(out, "_fmt", fmt)
        object.__setattr__(out, "_data", data)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fmt(self) -> FPFormat:
        return self._fmt

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def ndim(self) -> int:
        return self._data.ndim

    def __len__(self) -> int:
        return len(self._data)

    def to_numpy(self) -> np.ndarray:
        """Explicit conversion to a plain float64 array (copy)."""
        return self._data.copy()

    def cast(self, fmt: FPFormat) -> "FlexFloatArray":
        """Explicit elementwise format conversion (counted as casts)."""
        return FlexFloatArray(self, fmt)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> Union[FlexFloat, "FlexFloatArray"]:
        picked = self._data[index]
        if np.isscalar(picked) or picked.ndim == 0:
            return FlexFloat(float(picked), self._fmt)
        return FlexFloatArray._wrap(np.ascontiguousarray(picked), self._fmt)

    def __setitem__(self, index, value) -> None:
        if isinstance(value, FlexFloatArray):
            if value._fmt != self._fmt:
                raise FormatMismatchError(self._fmt, value._fmt, "setitem")
            self._data[index] = value._data
        elif isinstance(value, FlexFloat):
            if value.fmt != self._fmt:
                raise FormatMismatchError(self._fmt, value.fmt, "setitem")
            self._data[index] = value._value
        else:
            self._data[index] = ops.quantize_array(
                np.asarray(value, dtype=np.float64), self._fmt
            )

    def __iter__(self) -> Iterator[Union[FlexFloat, "FlexFloatArray"]]:
        for i in range(len(self)):
            yield self[i]

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Operand, op: str):
        if isinstance(other, FlexFloatArray):
            if other._fmt != self._fmt:
                raise FormatMismatchError(self._fmt, other._fmt, op)
            return other._data
        if isinstance(other, FlexFloat):
            if other.fmt != self._fmt:
                raise FormatMismatchError(self._fmt, other.fmt, op)
            return other._value
        if isinstance(other, (int, float)):
            return ops.quantize_array(
                np.asarray(float(other), dtype=np.float64), self._fmt
            )
        if isinstance(other, np.ndarray):
            return ops.quantize_array(other.astype(np.float64), self._fmt)
        return NotImplemented

    def _binary(
        self, other: Operand, op: str, swap: bool = False
    ) -> "FlexFloatArray":
        rhs = self._coerce(other, op)
        if rhs is NotImplemented:
            return NotImplemented
        rhs_shape = rhs.shape if isinstance(rhs, np.ndarray) else ()
        record_op(
            self._fmt,
            op,
            int(math.prod(np.broadcast_shapes(self.shape, rhs_shape))),
        )
        a, b = (rhs, self._data) if swap else (self._data, rhs)
        return FlexFloatArray._wrap(
            ops.binary_array(op, a, b, self._fmt), self._fmt
        )

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

    def __neg__(self) -> "FlexFloatArray":
        return FlexFloatArray._wrap(-self._data, self._fmt)

    def __abs__(self) -> "FlexFloatArray":
        return FlexFloatArray._wrap(np.abs(self._data), self._fmt)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None):
        """Tree-reduction sum with per-level sanitization.

        Emulates a vectorized accumulator: additions at each level of a
        balanced binary tree, each result rounded to the array format.
        ``n - 1`` additions per reduced lane are recorded, the same count
        a hardware loop would execute.  With ``axis``, reduces along that
        axis and returns a :class:`FlexFloatArray`; without, reduces
        everything to one :class:`FlexFloat`.
        """
        if axis is None:
            work = self._data.reshape(1, -1)
        else:
            work = np.moveaxis(self._data, axis, -1)
            lead = work.shape[:-1]
            # Spell the row count out: -1 is ambiguous for empty axes.
            work = work.reshape(math.prod(lead), work.shape[-1])
        n = work.shape[1]
        if n == 0:
            reduced = np.zeros(work.shape[0])
        else:
            record_op(self._fmt, "add", (n - 1) * work.shape[0])
            reduced = ops.tree_sum(work, self._fmt)
        if axis is None:
            return FlexFloat(float(reduced[0]), self._fmt)
        return FlexFloatArray._wrap(
            np.ascontiguousarray(reduced.reshape(lead)), self._fmt
        )

    def dot(self, other: "FlexFloatArray") -> FlexFloat:
        """Elementwise product followed by the tree-reduction sum."""
        return (self * other).sum()

    def take(self, indices) -> "FlexFloatArray":
        """Gather elements (pure addressing: no FP operations counted)."""
        picked = self._data[np.asarray(indices)]
        return FlexFloatArray._wrap(np.ascontiguousarray(picked), self._fmt)

    def min(self) -> FlexFloat:
        record_op(self._fmt, "min", max(self.size - 1, 0))
        return FlexFloat(float(np.min(self._data)), self._fmt)

    def max(self) -> FlexFloat:
        record_op(self._fmt, "max", max(self.size - 1, 0))
        return FlexFloat(float(np.max(self._data)), self._fmt)

    # ------------------------------------------------------------------
    # Shape utilities (no arithmetic, no stats)
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "FlexFloatArray":
        return FlexFloatArray._wrap(self._data.reshape(*shape), self._fmt)

    def copy(self) -> "FlexFloatArray":
        return FlexFloatArray._wrap(self._data.copy(), self._fmt)

    def transpose(self) -> "FlexFloatArray":
        return FlexFloatArray._wrap(
            np.ascontiguousarray(self._data.T), self._fmt
        )

    @property
    def T(self) -> "FlexFloatArray":
        return self.transpose()

    def __repr__(self) -> str:
        return f"FlexFloatArray({self._fmt!r}, shape={self.shape})"


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


#: Widest mantissa :func:`fused_multiply_add` accepts: two significands
#: of ``man_bits + 1`` bits multiply exactly in binary64's 53 bits only
#: while ``2 * (man_bits + 1) <= 53``.
FMA_MAX_MAN_BITS = 25


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
    exact value (Boldo and Melquiond).  The final rounding is the
    reference :func:`~repro.core.quantize.quantize`.
    """
    if fmt.man_bits > FMA_MAX_MAN_BITS:
        raise ValueError(
            f"fma rounds once only for formats with at most "
            f"{FMA_MAX_MAN_BITS} mantissa bits, not {fmt}"
        )
    return quantize(_sum_round_to_odd(x * y, z), fmt)
