"""Bit-exact quantization of binary64 values to arbitrary (e, m) formats.

This module is the Python equivalent of FlexFloat's *sanitization* step:
arithmetic is performed on native doubles and every result is rounded back
to the target format.  Rounding is IEEE 754 round-to-nearest-even with
graceful underflow (subnormals), signed-zero preservation and overflow to
infinity, so for any format with ``man_bits <= 24`` the emulated results
are bit-identical to a correctly-rounding native unit (the classical
``2p + 2`` innocuous-double-rounding guarantee: binary64 carries 53 bits,
more than twice the 24-bit single-precision significand plus two).

Two implementations are provided and tested against each other:

* :func:`quantize` -- scalar, exact integer arithmetic on the IEEE bit
  pattern (arbitrary-precision Python ints, no rounding shortcuts);
* :func:`quantize_array` -- vectorized numpy implementation, which the
  numeric forms' arrays go through.

:func:`encode` / :func:`decode` convert between quantized values and the
packed integer bit patterns of the target format, which is what the
hardware unit moves through memory.

This module is the *reference* implementation: its
:func:`quantize_array` is what :class:`repro.core.backend.ReferenceBackend`
executes, and the oracle every other backend (e.g. the fast numpy
engine) is cross-checked against bit for bit.  Array arithmetic in
library code goes through the dispatching :mod:`repro.core.ops`; the
one-value functions here are :mod:`repro.core`'s own ``quantize``,
``encode``, ``decode`` and ``is_exact``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .formats import FPFormat

__all__ = [
    "quantize",
    "quantize_array",
    "encode",
    "decode",
    "encode_array",
    "decode_array",
    "is_exact",
]

_MASK52 = (1 << 52) - 1
_EXP_MASK = 0x7FF


def _float_to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _rne_shift(value: int, shift: int) -> int:
    """Shift ``value`` right by ``shift`` bits, rounding to nearest-even."""
    if shift <= 0:
        return value << (-shift)
    half = 1 << (shift - 1)
    rem = value & ((1 << shift) - 1)
    out = value >> shift
    if rem > half or (rem == half and out & 1):
        out += 1
    return out


def _decompose(x: float) -> tuple[int, int, int]:
    """Split a finite non-zero double into ``(sign, ex, sig53)``.

    The value equals ``(-1)**sign * sig53 * 2**(ex - 52)`` with
    ``sig53`` in ``[2**52, 2**53)`` -- i.e. the significand normalized to
    53 bits regardless of whether the input was a subnormal double.
    """
    bits = _float_to_bits(x)
    sign = bits >> 63
    exp_field = (bits >> 52) & _EXP_MASK
    frac = bits & _MASK52
    if exp_field == 0:
        # Subnormal double: value = frac * 2**-1074.  Normalize.
        top = frac.bit_length() - 1
        sig53 = frac << (52 - top)
        ex = top - 1074
    else:
        sig53 = (1 << 52) | frac
        ex = exp_field - 1023
    return sign, ex, sig53


def quantize(x: float, fmt: FPFormat) -> float:
    """Round ``x`` to the nearest value representable in ``fmt``.

    Round-to-nearest-even; subnormals flush gracefully; magnitudes beyond
    the largest finite value round to infinity exactly when IEEE 754 says
    they must (i.e. at or above ``maxfinite + ulp/2``).  Signed zeros and
    infinities pass through; NaN stays NaN.
    """
    x = float(x)
    if x != x or x == math.inf or x == -math.inf:
        return x
    if x == 0.0:
        return x  # preserves the sign of zero

    sign, ex, sig53 = _decompose(x)
    # Exponent of one unit in the last place of the destination format;
    # below emin the quantum is pinned to the subnormal spacing.
    q = max(ex, fmt.emin) - fmt.man_bits
    shift = q - ex + 52
    rounded = _rne_shift(sig53, shift)
    if rounded == 0:
        return -0.0 if sign else 0.0
    # Overflow check: the rounded magnitude may exceed the largest finite
    # value, in which case IEEE round-to-nearest maps it to infinity.
    if rounded.bit_length() - 1 + q > fmt.emax:
        return -math.inf if sign else math.inf
    magnitude = math.ldexp(rounded, q)  # exact: rounded < 2**54
    return -magnitude if sign else magnitude


def is_exact(x: float, fmt: FPFormat) -> bool:
    """True when ``x`` is already exactly representable in ``fmt``."""
    return quantize(x, fmt) == x or x != x


# ----------------------------------------------------------------------
# Vectorized path
# ----------------------------------------------------------------------
def quantize_array(values: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """Vectorized :func:`quantize` over a float64 numpy array.

    Bit-identical to the scalar path (property-tested); returns a new
    float64 array of the same shape.
    """
    a = np.asarray(values, dtype=np.float64)
    if fmt.exp_bits == 11 and fmt.man_bits == 52:
        return a.copy()  # binary64 is the backing type: identity

    # Non-finite elements are routed around the integer pipeline (they are
    # re-selected from the input at the end); replace them with a benign
    # value so frexp/astype never see them.
    finite = np.isfinite(a)
    a_safe = np.where(finite, a, 1.0)
    mantissa, exponent = np.frexp(a_safe)
    # |a| = |mantissa| * 2**exponent with |mantissa| in [0.5, 1), so the
    # 53-bit integer significand is |mantissa| * 2**53 and the unbiased
    # exponent of the leading bit is exponent - 1.
    sig = np.round(np.abs(mantissa) * 9007199254740992.0).astype(np.int64)
    ex = exponent.astype(np.int64) - 1

    q = np.maximum(ex, fmt.emin) - fmt.man_bits
    shift = q - ex + 52
    # Shifts of 54 or more always round to zero (the 53-bit significand is
    # strictly below the rounding half-point); clamp so int64 shifts stay
    # within range.
    shift_c = np.minimum(np.maximum(shift, 1), 62)
    half = np.int64(1) << (shift_c - 1)
    mask = (np.int64(1) << shift_c) - 1
    rem = sig & mask
    out = sig >> shift_c
    round_up = (rem > half) | ((rem == half) & ((out & 1) == 1))
    rounded = out + round_up.astype(np.int64)
    rounded = np.where(shift <= 0, sig, rounded)
    rounded = np.where(shift >= 54, np.int64(0), rounded)

    with np.errstate(over="ignore"):
        # Exact products below the overflow threshold; anything that
        # overflows double is far beyond max_value and becomes inf next.
        magnitude = np.ldexp(rounded.astype(np.float64), q)
    magnitude = np.where(magnitude > fmt.max_value, np.inf, magnitude)
    result = np.copysign(magnitude, a_safe)

    return np.where(finite & (a != 0.0), result, a)


# ----------------------------------------------------------------------
# Bit-pattern packing
# ----------------------------------------------------------------------
def encode(x: float, fmt: FPFormat) -> int:
    """Pack a value into the ``fmt.bits``-wide integer bit pattern.

    ``x`` is quantized first, so any double is accepted.  NaN encodes as a
    quiet NaN (most-significant mantissa bit set); for formats with
    ``man_bits == 0`` NaN and infinity share the all-ones exponent
    encoding, a documented limitation of mantissa-less formats.
    """
    v = quantize(x, fmt)
    e, m = fmt.exp_bits, fmt.man_bits
    exp_all_ones = (1 << e) - 1
    if v != v:
        quiet = 1 << (m - 1) if m > 0 else 0
        return (exp_all_ones << m) | quiet
    sign = 1 if math.copysign(1.0, v) < 0 else 0
    if v == 0.0:
        return sign << (e + m)
    if math.isinf(v):
        return (sign << (e + m)) | (exp_all_ones << m)
    _, ex, sig53 = _decompose(v)
    if ex >= fmt.emin:
        biased = ex + fmt.bias
        frac = (sig53 - (1 << 52)) >> (52 - m)
        return (sign << (e + m)) | (biased << m) | frac
    # Subnormal in the destination: value = frac * 2**(emin - m).
    frac = int(math.ldexp(abs(v), m - fmt.emin))
    return (sign << (e + m)) | frac


def decode(pattern: int, fmt: FPFormat) -> float:
    """Unpack a ``fmt.bits``-wide integer bit pattern into a double."""
    e, m = fmt.exp_bits, fmt.man_bits
    if not 0 <= pattern < (1 << fmt.bits):
        raise ValueError(
            f"pattern {pattern:#x} does not fit in {fmt.bits} bits"
        )
    sign = (pattern >> (e + m)) & 1
    biased = (pattern >> m) & ((1 << e) - 1)
    frac = pattern & ((1 << m) - 1)
    if biased == (1 << e) - 1:
        if frac:
            return math.nan
        return -math.inf if sign else math.inf
    if biased == 0:
        magnitude = math.ldexp(frac, fmt.emin - m)
    else:
        magnitude = math.ldexp((1 << m) | frac, biased - fmt.bias - m)
    return -magnitude if sign else magnitude


def encode_array(values: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """Vectorized :func:`encode`; returns a uint64 array of bit patterns."""
    a = quantize_array(np.asarray(values, dtype=np.float64), fmt)
    e, m = fmt.exp_bits, fmt.man_bits
    exp_all_ones = np.uint64((1 << e) - 1)

    finite = np.isfinite(a)
    a_safe = np.where(finite, a, 1.0)
    sign = (np.signbit(a)).astype(np.uint64)
    mantissa, exponent = np.frexp(np.abs(a_safe))
    sig = np.round(mantissa * 9007199254740992.0).astype(np.uint64)
    ex = exponent.astype(np.int64) - 1

    normal = finite & (a != 0.0) & (ex >= fmt.emin)
    biased = np.where(normal, ex + fmt.bias, 0).astype(np.uint64)
    frac_normal = np.where(normal, sig - np.uint64(1 << 52), np.uint64(0))
    frac_normal = frac_normal >> np.uint64(52 - m) if m < 52 else frac_normal
    # Destination subnormals: the fraction field is |v| / 2**(emin - m).
    # The scaling overflows for normal-path elements; those lanes are
    # masked out right below, so the overflow is benign.
    with np.errstate(over="ignore"):
        frac_sub = np.ldexp(np.abs(a_safe), m - fmt.emin)
    frac_sub = np.where(normal | ~finite, 0.0, frac_sub)
    frac = np.where(normal, frac_normal, frac_sub.astype(np.uint64))

    pattern = (
        (sign << np.uint64(e + m)) | (biased << np.uint64(m)) | frac
    )
    inf_pat = (sign << np.uint64(e + m)) | (exp_all_ones << np.uint64(m))
    pattern = np.where(np.isinf(a), inf_pat, pattern)
    quiet = np.uint64((1 << (m - 1)) if m > 0 else 0)
    nan_pat = (exp_all_ones << np.uint64(m)) | quiet
    pattern = np.where(np.isnan(a), nan_pat, pattern)
    zero_pat = sign << np.uint64(e + m)
    pattern = np.where(a == 0.0, zero_pat, pattern)
    return pattern.astype(np.uint64)


def decode_array(patterns: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """Vectorized :func:`decode`; returns a float64 array.

    Like :func:`decode`, rejects a pattern outside ``[0, 2**fmt.bits)``
    instead of masking it to the format's width.
    """
    raw = np.asarray(patterns)
    if raw.size:
        for pattern in (int(raw.min()), int(raw.max())):
            if not 0 <= pattern < (1 << fmt.bits):
                raise ValueError(
                    f"pattern {pattern:#x} does not fit in {fmt.bits} bits"
                )
    p = raw.astype(np.uint64)
    e, m = fmt.exp_bits, fmt.man_bits
    sign = ((p >> np.uint64(e + m)) & np.uint64(1)).astype(np.float64)
    biased = ((p >> np.uint64(m)) & np.uint64((1 << e) - 1)).astype(np.int64)
    frac = (p & np.uint64((1 << m) - 1)).astype(np.int64)

    is_special = biased == (1 << e) - 1
    is_sub = biased == 0
    magnitude = np.ldexp(
        np.where(is_sub, frac, frac | (1 << m)).astype(np.float64),
        np.where(is_sub, fmt.emin - m, biased - fmt.bias - m).astype(np.int64),
    )
    result = np.where(sign > 0, -magnitude, magnitude)
    result = np.where(is_special & (frac == 0),
                      np.where(sign > 0, -np.inf, np.inf), result)
    result = np.where(is_special & (frac != 0), np.nan, result)
    return result
