"""Tests for the quantizer's rounding: to nearest, ties to even.

The paper's unit rounds to nearest even only, and so does every shipped
backend; the directed modes (toward zero, toward plus or minus infinity)
are not reproduced.  These tests pin which way a nearest-even result
goes, its overflow and underflow edges, and its properties, on the
scalar and array paths of both backends.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY32,
    decode,
    encode,
    quantize,
    quantize_array,
    resolve_backend,
    use_backend,
)

finite = st.floats(allow_nan=False, allow_infinity=False)

BACKENDS = ("reference", "fast")


def rounded(x, fmt):
    """``x`` rounded to ``fmt`` on every path; all paths must agree."""
    outs = []
    for name in BACKENDS:
        with use_backend(name):
            outs.append(quantize(x, fmt))
            outs.append(float(quantize_array(np.array([x]), fmt)[0]))
    first = outs[0]
    for out in outs[1:]:
        assert out == first or (math.isnan(out) and math.isnan(first))
        assert math.copysign(1.0, out) == math.copysign(1.0, first)
    return first


def neighbour(q, toward, fmt):
    """The representable value next to ``q`` in the direction of
    ``toward``, by stepping the bit pattern."""
    pattern = encode(q, fmt)
    sign = pattern >> (fmt.bits - 1)
    if q == 0.0:
        return math.copysign(fmt.min_subnormal, toward)
    away = (toward > q) != bool(sign)
    return decode(pattern + 1 if away else pattern - 1, fmt)


class TestBasics:
    def test_nearest_even_is_default_quantizer(self):
        for x in (1.1, -2.7, 3.14159, 1e-9):
            assert rounded(x, BINARY16) == quantize(x, BINARY16)
        # binary8 keeps two mantissa bits: 1.125 ties between 1.0 and
        # 1.25 and goes to the even 1.0; 1.375 ties up to the even 1.5.
        assert rounded(1.125, BINARY8) == 1.0
        assert rounded(1.375, BINARY8) == 1.5
        assert rounded(-1.375, BINARY8) == -1.5

    def test_unknown_mode_rejected(self):
        # The rounding is fixed; only its engine is chosen, by backend
        # name, and a rounding-mode name is none of them.
        with pytest.raises(KeyError, match="unknown backend"):
            resolve_backend("round_half_up")

    def test_specials_pass_through(self):
        assert math.isnan(rounded(math.nan, BINARY8))
        assert rounded(math.inf, BINARY8) == math.inf
        assert rounded(-math.inf, BINARY8) == -math.inf
        assert rounded(0.0, BINARY8) == 0.0
        assert math.copysign(1.0, rounded(-0.0, BINARY8)) == -1.0

    def test_exact_values_unchanged_by_any_mode(self):
        for x in (1.5, -0.25, BINARY8.max_value, BINARY8.min_subnormal):
            assert rounded(x, BINARY8) == x


class TestDirections:
    def test_toward_zero_truncates(self):
        # 1.1 sits between 1.0 and 1.25 in binary8, below the midpoint.
        assert rounded(1.1, BINARY8) == 1.0
        assert rounded(-1.1, BINARY8) == -1.0

    def test_toward_positive(self):
        assert rounded(1.2, BINARY8) == 1.25
        assert rounded(-1.1, BINARY8) == -1.0

    def test_toward_negative(self):
        assert rounded(1.1, BINARY8) == 1.0
        assert rounded(-1.2, BINARY8) == -1.25

    def test_rtz_overflow_clamps_to_max(self):
        # Past the largest value but below the midpoint to the next
        # binade's first value, the nearest value is still the largest.
        below = 65519.0
        assert rounded(below, BINARY16) == 65504.0
        assert rounded(-below, BINARY16) == -65504.0

    def test_directed_overflow(self):
        # From the midpoint up (65520 ties to the even infinity).
        for big in (65520.0, 1.0e9):
            assert rounded(big, BINARY16) == math.inf
            assert rounded(-big, BINARY16) == -math.inf

    def test_tiny_values(self):
        tiny = BINARY16.min_subnormal
        assert rounded(tiny / 10, BINARY16) == 0.0
        assert math.copysign(1.0, rounded(-tiny / 10, BINARY16)) == -1.0
        assert rounded(tiny / 2, BINARY16) == 0.0  # tie to the even zero
        assert rounded(0.6 * tiny, BINARY16) == tiny
        assert rounded(1.5 * tiny, BINARY16) == 2 * tiny  # tie to even


class TestProperties:
    @given(finite, st.sampled_from(BACKENDS))
    @settings(max_examples=300)
    def test_result_is_representable(self, x, backend):
        with use_backend(backend):
            out = quantize(x, BINARY16)
            if math.isfinite(out):
                assert quantize(out, BINARY16) == out
                assert decode(encode(out, BINARY16), BINARY16) == out

    @given(st.floats(min_value=-BINARY8.max_value,
                     max_value=BINARY8.max_value))
    @settings(max_examples=300)
    def test_bracketing(self, x):
        # x lies between its rounding and that value's neighbour on
        # x's side, no farther than halfway from the rounding.
        near = rounded(x, BINARY8)
        if near == x:
            return
        other = neighbour(near, x, BINARY8)
        assert min(near, other) < x < max(near, other)
        assert abs(x - near) <= abs(other - near) / 2

    @given(st.floats(min_value=BINARY8.min_normal,
                     max_value=BINARY8.max_value))
    @settings(max_examples=300)
    def test_truncation_never_grows_magnitude(self, x):
        # Truncating the binary64 significand to binary8's two bits
        # never grows the magnitude, and the nearest value is that
        # truncation or one step above it.
        (bits,) = struct.unpack("<Q", struct.pack("<d", x))
        drop = 52 - BINARY8.man_bits
        (trunc,) = struct.unpack("<d", struct.pack(
            "<Q", bits >> drop << drop))
        assert trunc <= x
        for sign in (1.0, -1.0):
            near = rounded(sign * x, BINARY8)
            step = neighbour(sign * trunc, sign * math.inf, BINARY8)
            assert near in (sign * trunc, step)

    @given(finite)
    @settings(max_examples=300)
    def test_rtz_matches_sign_split_of_directed_modes(self, x):
        # Rounding is sign-symmetric, and binary32's is numpy's float32
        # cast (the hardware's round to nearest even).
        near = rounded(x, BINARY32)
        assert rounded(-x, BINARY32) == -near
        with np.errstate(over="ignore"):
            assert near == float(np.float32(x))
