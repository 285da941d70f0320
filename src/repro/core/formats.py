"""Floating-point format descriptions (paper Fig. 1).

A format is an IEEE-754-style layout: one sign bit, ``exp_bits`` exponent
bits and ``man_bits`` explicit mantissa bits.  The paper's extended type
system consists of four such formats:

* ``binary8``     (1, 5, 2)  -- new; same dynamic range as binary16,
  three significant bits.
* ``binary16``    (1, 5, 10) -- IEEE half precision.
* ``binary16alt`` (1, 8, 7)  -- new; same dynamic range as binary32
  (identical layout to what is now called bfloat16).
* ``binary32``    (1, 8, 23) -- IEEE single precision.

``binary64`` (1, 11, 52) is also defined because FlexFloat backs every
value with a native double; quantizing to binary64 is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FPFormat",
    "BINARY8",
    "BINARY16",
    "BINARY16ALT",
    "BINARY32",
    "BINARY64",
    "STANDARD_FORMATS",
    "format_by_name",
    "FormatRows",
]

#: Largest exponent field representable while backing values with binary64.
MAX_EXP_BITS = 11
#: Largest mantissa field representable while backing values with binary64.
MAX_MAN_BITS = 52


@dataclass(frozen=True)
class FPFormat:
    """An IEEE-754-style floating-point format ``(1, exp_bits, man_bits)``.

    Instances are immutable and hashable, so they can be used as dictionary
    keys (the statistics collector and the hardware model both do this).

    Attributes
    ----------
    exp_bits:
        Width of the exponent field in bits (1 .. 11).
    man_bits:
        Width of the explicit mantissa (significand) field in bits (0 .. 52).
    name:
        Optional human-readable name.  Anonymous formats render as
        ``flexfloat<e,m>`` in reprs, mirroring the C++ template syntax.
    """

    exp_bits: int
    man_bits: int
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.exp_bits <= MAX_EXP_BITS:
            raise ValueError(
                f"exp_bits must be in [1, {MAX_EXP_BITS}], got {self.exp_bits}"
            )
        if not 0 <= self.man_bits <= MAX_MAN_BITS:
            raise ValueError(
                f"man_bits must be in [0, {MAX_MAN_BITS}], got {self.man_bits}"
            )

    # ------------------------------------------------------------------
    # Derived layout properties
    # ------------------------------------------------------------------
    @property
    def bits(self) -> int:
        """Total storage width in bits (sign + exponent + mantissa)."""
        return 1 + self.exp_bits + self.man_bits

    @property
    def storage_bytes(self) -> int:
        """Bytes occupied in memory, rounded up to a whole byte."""
        return (self.bits + 7) // 8

    @property
    def bias(self) -> int:
        """Exponent bias, ``2**(exp_bits - 1) - 1``."""
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def emax(self) -> int:
        """Largest unbiased exponent of a normal number (equals the bias)."""
        return self.bias

    @property
    def emin(self) -> int:
        """Smallest unbiased exponent of a normal number, ``1 - bias``."""
        return 1 - self.bias

    @property
    def precision(self) -> int:
        """Significant bits including the implicit leading one (p = m + 1)."""
        return self.man_bits + 1

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude."""
        return (2.0 - 2.0 ** -self.man_bits) * 2.0 ** self.emax

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude, ``2**emin``."""
        return 2.0 ** self.emin

    @property
    def min_subnormal(self) -> float:
        """Smallest positive subnormal magnitude, ``2**(emin - man_bits)``."""
        return 2.0 ** (self.emin - self.man_bits)

    @property
    def machine_epsilon(self) -> float:
        """Spacing between 1.0 and the next representable value."""
        return 2.0 ** -self.man_bits

    @property
    def dynamic_range_db(self) -> float:
        """Dynamic range, ``20*log10(max_value / min_normal)`` in dB.

        The paper defines dynamic range as the ratio between the largest
        and smallest representable values; we use the smallest *normal*
        value, the conventional choice.
        """
        import math

        return 20.0 * math.log10(self.max_value / self.min_normal)

    # ------------------------------------------------------------------
    # Serialization (result store / experiment runner)
    # ------------------------------------------------------------------
    def to_payload(self) -> list:
        """JSON-able description, ``[exp_bits, man_bits, name]``.

        Round-trips anonymous formats too, unlike a name-only encoding.
        """
        return [self.exp_bits, self.man_bits, self.name]

    @classmethod
    def from_payload(cls, payload) -> "FPFormat":
        """Inverse of :meth:`to_payload` (also accepts a bare name)."""
        if isinstance(payload, str):
            return format_by_name(payload)
        exp_bits, man_bits, name = payload
        return cls(int(exp_bits), int(man_bits), name=str(name))

    # ------------------------------------------------------------------
    # Relationships between formats
    # ------------------------------------------------------------------
    def covers(self, other: "FPFormat") -> bool:
        """Return True if every value of ``other`` is exactly representable.

        True when this format has at least as many exponent bits and at
        least as many mantissa bits.  ``binary16alt.covers(binary8)`` is
        False (8 vs 5 exponent bits but 7 vs 2 mantissa bits is fine;
        the exponent *range* differs so subnormal b8 values still fit --
        ``covers`` is intentionally the conservative field-width check).
        """
        return (
            self.exp_bits >= other.exp_bits and self.man_bits >= other.man_bits
        )

    def same_dynamic_range(self, other: "FPFormat") -> bool:
        """True when both formats share the exponent width.

        Conversions between such formats never saturate (paper §III-A:
        binary8 mirrors binary16's range; binary16alt mirrors binary32's).
        """
        return self.exp_bits == other.exp_bits

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - trivial
        if self.name:
            return self.name
        return f"flexfloat<{self.exp_bits},{self.man_bits}>"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return repr(self)


BINARY8 = FPFormat(5, 2, name="binary8")
BINARY16 = FPFormat(5, 10, name="binary16")
BINARY16ALT = FPFormat(8, 7, name="binary16alt")
BINARY32 = FPFormat(8, 23, name="binary32")
BINARY64 = FPFormat(11, 52, name="binary64")

#: The formats of the paper's extended type system, narrowest first.
STANDARD_FORMATS = (BINARY8, BINARY16, BINARY16ALT, BINARY32, BINARY64)

_BY_NAME = {fmt.name: fmt for fmt in STANDARD_FORMATS}


def format_by_name(name: str) -> FPFormat:
    """Look up one of the standard formats by its name.

    Raises ``KeyError`` with the list of known names for typos.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown format {name!r}; known formats: {known}") from None


class FormatRows(tuple):
    """One :class:`FPFormat` per row of an array's leading axis.

    Passed where a format goes (``quantize_array``, ``binary_array``,
    ``unary_array``, ``tree_sum``), it rounds row ``r`` of the array to
    ``self[r]``: several candidate bindings run in lockstep, one row
    each, in one backend call per operation.  Equal by value, like the
    formats it holds.
    """

    __slots__ = ()
