"""Property tests for format conversions: the paper's range-mirroring
design guarantees (§III-A) expressed as hypothesis invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    quantize,
)
from repro.apps.base import wider
from tests.flexfloat import FlexFloat

finite = st.floats(allow_nan=False, allow_infinity=False)
b8_values = st.floats(min_value=-57344, max_value=57344, allow_nan=False)


class TestLosslessWidening:
    @given(finite)
    @settings(max_examples=300)
    def test_b8_to_b16_is_exact(self, x):
        # binary8 mirrors binary16's dynamic range and is a mantissa
        # subset: widening can never change the value.
        v = FlexFloat(x, BINARY8)
        assert float(v.cast(BINARY16)) == float(v) or v.is_nan()

    @given(finite)
    @settings(max_examples=300)
    def test_b16alt_to_b32_is_exact(self, x):
        v = FlexFloat(x, BINARY16ALT)
        assert float(v.cast(BINARY32)) == float(v) or v.is_nan()

    @given(finite)
    @settings(max_examples=300)
    def test_b16_to_b32_is_exact(self, x):
        v = FlexFloat(x, BINARY16)
        assert float(v.cast(BINARY32)) == float(v) or v.is_nan()

    @given(b8_values)
    @settings(max_examples=300)
    def test_widen_then_narrow_roundtrips(self, x):
        v = FlexFloat(x, BINARY8)
        roundtrip = v.cast(BINARY32).cast(BINARY8)
        assert float(roundtrip) == float(v)


class TestRangeMirroring:
    @given(finite)
    @settings(max_examples=300)
    def test_b8_b16_never_saturate_each_other(self, x):
        # Paper: conversions between binary8 and binary16 only affect
        # precision, never saturate.  As with binary32 -> binary16alt
        # below, the precise statement is per-binade: binary16 carries
        # finite values up to 65504 while binary8's round-to-nearest
        # overflow threshold is maxfinite + ulp/2 = 61440, so only the
        # top half-ulp sliver of the shared final binade saturates.
        v16 = FlexFloat(x, BINARY16)
        if v16.is_inf() or v16.is_nan():
            return
        threshold = BINARY8.max_value + 2.0 ** (
            BINARY8.emax - BINARY8.man_bits - 1
        )
        if abs(float(v16)) < threshold:
            assert not v16.cast(BINARY8).is_inf()
        else:
            assert v16.cast(BINARY8).is_inf()

    @given(finite)
    @settings(max_examples=300)
    def test_b32_to_b16alt_saturates_only_in_top_half_ulp(self, x):
        # The paper says binary16alt admits binary32's whole range; the
        # precise statement is per-binade: only the final half-ulp of
        # the very top binade (values above b16alt's smaller max-finite
        # rounding threshold) can overflow in the conversion.
        v32 = FlexFloat(x, BINARY32)
        if v32.is_inf() or v32.is_nan():
            return
        threshold = BINARY16ALT.max_value * (1 + 2.0 ** -8)
        if abs(float(v32)) <= threshold:
            assert not v32.cast(BINARY16ALT).is_inf()

    def test_b32_to_b16_saturates_beyond_65504(self):
        assert FlexFloat(1e5, BINARY32).cast(BINARY16).is_inf()

    def test_b16_to_b16alt_loses_precision_not_range(self):
        v = FlexFloat(65504.0, BINARY16)
        alt = v.cast(BINARY16ALT)
        assert not alt.is_inf()
        assert abs(float(alt) - 65504.0) / 65504.0 < 2 ** -7


class TestWiderAlgebra:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (BINARY8, BINARY16, BINARY16),
            (BINARY8, BINARY16ALT, BINARY16ALT),
            (BINARY16, BINARY16ALT, BINARY16ALT),  # exponent tiebreak
            (BINARY16, BINARY32, BINARY32),
            (BINARY16ALT, BINARY32, BINARY32),
            (BINARY8, BINARY8, BINARY8),
        ],
    )
    def test_pairs(self, a, b, expected):
        assert wider(a, b) == expected
        assert wider(b, a) == expected  # commutative

    def test_associative_over_standard_formats(self):
        formats = [BINARY8, BINARY16, BINARY16ALT, BINARY32]
        for a in formats:
            for b in formats:
                for c in formats:
                    assert wider(wider(a, b), c) == wider(a, wider(b, c))

    def test_idempotent(self):
        for fmt in (BINARY8, BINARY16, BINARY16ALT, BINARY32):
            assert wider(fmt, fmt) == fmt

    @given(finite)
    @settings(max_examples=200)
    def test_promotion_to_wider_is_lossless(self, x):
        # The compiler convention: casting to wider(a, b) never loses
        # the narrower operand's value.
        for narrow in (BINARY8, BINARY16, BINARY16ALT):
            target = wider(narrow, BINARY32)
            v = quantize(x, narrow)
            if math.isfinite(v):
                assert quantize(v, target) == v
