"""Tests for the dynamic range of the formats the tuner chooses from.

The tuner explores precision only; dynamic range enters through the
exponent width the type system pairs with each precision interval
(paper §III-A).  A variable whose values leave a candidate format's
range saturates to infinity or flushes to zero and fails the SQNR
target.  These tests pin which values each exponent width holds as
normals, where quantization saturates or flushes, and which standard
formats hold a data set, on both backends.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    BINARY64,
    STANDARD_FORMATS,
    FPFormat,
    quantize,
    quantize_array,
    use_backend,
)
from repro.tuning import V2

BACKENDS = ("reference", "fast")


def rounded(values, fmt):
    """``values`` quantized to ``fmt``; both backends must agree."""
    values = np.asarray(values, dtype=np.float64)
    outs = []
    for name in BACKENDS:
        with use_backend(name):
            outs.append(quantize_array(values, fmt))
    np.testing.assert_array_equal(outs[0], outs[1])
    return outs[0]


def holds(values, fmt) -> bool:
    """True when ``fmt`` stores every value exactly."""
    values = np.asarray(values, dtype=np.float64)
    return bool(np.array_equal(rounded(values, fmt), values, equal_nan=True))


def binades(values):
    """The unbiased exponents of the finite non-zero values."""
    a = np.asarray(values, dtype=np.float64)
    a = a[np.isfinite(a) & (a != 0.0)]
    return np.frexp(np.abs(a))[1] - 1


class TestAnalyzeRange:
    def test_unit_interval(self):
        values = [0.25, 0.5, 1.0]
        assert (binades(values).min(), binades(values).max()) == (-2, 0)
        # Three exponent bits (normals from 2**-2 to 2**3) suffice.
        tiny = FPFormat(3, 2)
        assert tiny.emin <= -2 and 0 <= tiny.emax
        assert holds(values, tiny)

    def test_wide_range_needs_wide_exponent(self):
        values = [1e-30, 1e30]
        out = rounded(values, BINARY16)
        assert out[0] == 0.0 and math.isinf(out[1])
        for fmt in (BINARY16ALT, BINARY32):
            assert fmt.exp_bits == 8
            out = rounded(values, fmt)
            assert np.isfinite(out).all() and (out != 0.0).all()

    def test_flags(self):
        # Zeros and signs survive every format.
        for fmt in STANDARD_FORMATS:
            out = rounded([0.0, -1.0, 2.0, -0.0], fmt)
            assert out.tolist() == [0.0, -1.0, 2.0, -0.0]
            assert math.copysign(1.0, out[3]) == -1.0

    def test_empty_and_zero_only(self):
        for fmt in (FPFormat(1, 2), BINARY8, BINARY32):
            assert rounded([], fmt).shape == (0,)
            assert holds([0.0, 0.0], fmt)

    def test_non_finite_ignored(self):
        out = rounded([1.0, np.inf, np.nan], BINARY8)
        assert out[0] == 1.0 and out[1] == np.inf and np.isnan(out[2])
        assert binades([1.0, np.inf, np.nan]).tolist() == [0]

    def test_dynamic_range_db(self):
        # Ten binades, [1, 1024], span 60.2 dB; binary16's normals span
        # 2**-14 to 65504.
        assert 20 * math.log10(1024.0) == pytest.approx(60.2, abs=0.2)
        assert BINARY16.dynamic_range_db == pytest.approx(180.6, abs=0.1)
        assert BINARY16ALT.dynamic_range_db > BINARY16.dynamic_range_db
        assert BINARY8.same_dynamic_range(BINARY16)

    @given(
        st.lists(
            st.floats(
                min_value=2.0 ** -14,
                max_value=2.0 ** 15,
                allow_nan=False,
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=150)
    def test_binary16_range_values_need_at_most_5_bits(self, xs):
        data = np.array(xs)
        for fmt in (BINARY8, BINARY16):
            out = rounded(data, fmt)
            assert np.isfinite(out).all() and (out > 0).all()
            error = np.abs(out - data) / data
            assert (error <= 2.0 ** -(fmt.man_bits + 1)).all()

    @given(
        st.lists(
            st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=150)
    def test_suggested_width_never_saturates(self, xs):
        data = np.array(xs)
        for fmt in (BINARY16ALT, BINARY32):
            assert np.isfinite(rounded(data, fmt)).all()


class TestAnalyzeRangeEdgeCases:
    """Degenerate inputs and exact binade boundaries."""

    def test_all_zero(self):
        for fmt in STANDARD_FORMATS:
            assert not rounded(np.zeros(16), fmt).any()

    def test_nan_inf_only(self):
        for fmt in STANDARD_FORMATS:
            out = rounded([np.nan, np.inf, -np.inf], fmt)
            assert np.isnan(out[0])
            assert out[1:].tolist() == [np.inf, -np.inf]

    def test_subnormal_only(self):
        # Double subnormals live below binade -1022: every narrower
        # format flushes them to zero; only binary64 keeps them.
        tiny = np.array([5e-324, 1e-310])
        assert binades(tiny).max() < -1022
        for fmt in STANDARD_FORMATS[:-1]:
            assert not rounded(tiny, fmt).any()
        assert holds(tiny, BINARY64)

    @pytest.mark.parametrize(
        "e,bias", [(4, 7), (5, 15), (8, 127)]
    )
    def test_exact_normal_boundaries(self, e, bias):
        fmt = FPFormat(e, 3)
        assert (fmt.bias, fmt.emin, fmt.emax) == (bias, 1 - bias, bias)
        # Exactly at the normal-range edges every significand bit holds...
        step = 1 + 2.0 ** -fmt.man_bits
        assert holds([2.0 ** (1 - bias) * step, 2.0 ** bias * step], fmt)
        # ...one binade past either edge does not: the bottom loses
        # precision as a subnormal, the top overflows.
        assert not holds([2.0 ** -bias * step], fmt)
        assert rounded([2.0 ** (bias + 1)], fmt)[0] == math.inf

    def test_bits_for_span_monotone_fallback(self):
        # binary64's 11 exponent bits are the widest a format may have.
        assert BINARY64.exp_bits == 11
        with pytest.raises(ValueError, match="exp_bits"):
            FPFormat(12, 3)
        assert holds([1e-300, 1e300], BINARY64)
        assert not holds([1e-300, 1e300], BINARY32)


class TestFittingFormats:
    def test_small_values_fit_everything(self):
        for fmt in STANDARD_FORMATS:
            assert holds([0.5, 1.0, 2.0], fmt)

    def test_large_values_exclude_5bit_exponents(self):
        assert math.isinf(quantize(1.0e6, BINARY8))
        assert math.isinf(quantize(1.0e6, BINARY16))
        finite = [f for f in STANDARD_FORMATS
                  if math.isfinite(quantize(1.0e6, f))]
        assert finite[0] == BINARY16ALT

    def test_precision_requirement_filters(self):
        precise = [f for f in STANDARD_FORMATS if f.precision >= 9]
        assert BINARY8 not in precise
        assert BINARY16ALT not in precise
        assert BINARY16 in precise
        assert BINARY32 in precise
        assert V2.storage_format(9) == BINARY16

    def test_ordered_narrowest_first(self):
        for formats in (STANDARD_FORMATS, V2.formats):
            assert [f.bits for f in formats] == sorted(
                f.bits for f in formats
            )

    def test_binary64_always_last_resort(self):
        # binary64, the carrier, closes the list exactly once and holds
        # what no transprecision format does.
        names = [f.name for f in STANDARD_FORMATS]
        assert names[-1] == "binary64"
        assert names.count("binary64") == 1
        for values in ([1.0], [1e200], [1e-300, 1e300]):
            assert holds(values, STANDARD_FORMATS[-1])

    def test_subnormal_only_returns_binary64(self):
        fitting = [f.name for f in STANDARD_FORMATS if holds([5e-324], f)]
        assert fitting == ["binary64"]

    def test_high_precision_demand_still_lands_somewhere(self):
        precise = [f.name for f in STANDARD_FORMATS if f.precision >= 30]
        assert precise == ["binary64"]
        with pytest.raises(ValueError, match="exceeds"):
            V2.storage_format(30)
