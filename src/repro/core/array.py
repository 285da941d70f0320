"""FlexFloatArray: vectorized FlexFloat emulation over numpy.

The paper's C++ library is scalar; precision tuning, however, runs the
application hundreds of times, so this reproduction adds an array type
with identical semantics to make tuning runs fast:

* the payload is a float64 ndarray that is *always* sanitized to the
  array's format (every element exactly representable);
* elementwise operations require matching formats, exactly like
  :class:`repro.core.value.FlexFloat`; casts are explicit;
* reductions (:meth:`sum`, :meth:`dot`) quantize after **every** addition
  level using a balanced binary tree, emulating the rounding pattern of
  a vectorized/unrolled accumulator rather than computing in float64 and
  rounding once -- the difference is exactly the rounding-error structure
  the precision tuner must observe;
* all operations report elementwise counts to :mod:`repro.core.stats`
  and execute through :mod:`repro.core.ops`, i.e. on the active
  session's backend (the fast backend fuses the elementwise operator
  with quantize-on-write).
"""

from __future__ import annotations

import math
from typing import Iterator, Union

import numpy as np

from . import ops
from .formats import FPFormat
from .stats import record_cast, record_op
from .value import FlexFloat, FormatMismatchError

__all__ = ["FlexFloatArray"]

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
