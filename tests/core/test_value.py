"""Tests for the FlexFloat scalar type: operator semantics, strict
format-mixing rules, casts, and agreement with native half arithmetic."""

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
    Stats,
    collect,
    quantize,
    use_backend,
)
from tests.flexfloat import (
    FMA_MAX_MAN_BITS,
    FlexFloat,
    FlexFloatArray,
    FormatMismatchError,
    fused_multiply_add,
    sqrt,
)


@pytest.fixture(params=["reference", "fast"])
def backend(request):
    """Run the test body on each shipped backend."""
    with use_backend(request.param):
        yield request.param


def _constructed(fmt):
    raw = (3, True, np.float32(1.1), np.float64(-2.2), np.int64(7),
           1e300, -0.0, math.nan, math.inf)
    return [FlexFloat(v, fmt) for v in raw] + [
        FlexFloat(FlexFloat(1.1, BINARY64), fmt)
    ]


def _from_bits(fmt):
    patterns = (0, 1, 1 << (fmt.bits - 1), (1 << fmt.bits) - 1)
    return [FlexFloat.from_bits(p, fmt) for p in patterns]


def _arithmetic(fmt):
    x, y = FlexFloat(1.5, fmt), FlexFloat(-0.75, fmt)
    zero = FlexFloat(0.0, fmt)
    return [x + y, x - y, x * y, x / y, 1.0 + x, 2 - x, 3 * x, 1 / x,
            x / zero, zero / zero]


def _sign(fmt):
    x = FlexFloat(-2.5, fmt)
    return [-x, abs(x), +x, -FlexFloat(0.0, fmt)]


def _cast(fmt):
    return [FlexFloat(v, src).cast(fmt)
            for src in STANDARD_FORMATS for v in (1.1, -3e38, 1e-300)]


def _array_items(fmt):
    a = FlexFloatArray([1.0, -2.5, 0.0], fmt)
    return [a[0], a[-1], *a, a.reshape(3, 1)[1, 0]]


def _reductions(fmt):
    a = FlexFloatArray([1.0, -2.5, 0.75, 4.0], fmt)
    return [a.sum(), a.dot(a), a.min(), a.max(),
            FlexFloatArray([], fmt).sum()]


def _mathfn(fmt):
    x = FlexFloat(2.0, fmt)
    return [sqrt(x), sqrt(-x)]


def _fma(fmt):
    # The single rounding wrapped as is, as the oracle builder's fma
    # values are.
    if fmt.man_bits > FMA_MAX_MAN_BITS:
        return []
    x, y = 1.5, quantize(-0.75, fmt)
    return [FlexFloat._from_raw(fused_multiply_add(a, b, c, fmt), fmt)
            for a, b, c in ((x, y, x), (x, x, y))]


#: Every way a FlexFloat in a given format comes into being.
VALUE_PRODUCERS = {
    "constructor": _constructed,
    "from_bits": _from_bits,
    "arithmetic": _arithmetic,
    "sign": _sign,
    "cast": _cast,
    "array_items": _array_items,
    "reductions": _reductions,
    "mathfn": _mathfn,
    "fma": _fma,
}

small_floats = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)


class TestConstruction:
    def test_value_is_sanitized_on_construction(self):
        x = FlexFloat(3.14159, BINARY16)
        assert float(x) == float(np.float16(3.14159))

    def test_from_int(self):
        assert float(FlexFloat(7, BINARY8)) == 7.0

    def test_int_conversion(self):
        assert int(FlexFloat(7.9, BINARY32)) == 7

    def test_bool(self):
        assert FlexFloat(1.0, BINARY8)
        assert not FlexFloat(0.0, BINARY8)

    def test_from_bits_roundtrip(self):
        x = FlexFloat(1.5, BINARY8)
        assert float(FlexFloat.from_bits(x.bits, BINARY8)) == 1.5

    def test_repr_contains_format_and_pattern(self):
        r = repr(FlexFloat(1.0, BINARY8))
        assert "binary8" in r and "0x3c" in r

    def test_construction_from_other_format_is_explicit_cast(self):
        stats = Stats()
        with collect(stats):
            x = FlexFloat(1.0, BINARY32)
            y = FlexFloat(x, BINARY8)
        assert float(y) == 1.0
        assert stats.total_casts() == 1


class TestArithmetic:
    def test_add_rounds_to_format(self):
        # 1 + 2^-11 rounds back to 1 in binary16.
        one = FlexFloat(1.0, BINARY16)
        eps = FlexFloat(2.0 ** -11, BINARY16)
        assert float(one + eps) == 1.0

    def test_add_exact_within_precision(self):
        a = FlexFloat(1.5, BINARY8)
        b = FlexFloat(0.25, BINARY8)
        assert float(a + b) == 1.75

    def test_sub(self):
        a = FlexFloat(2.0, BINARY8)
        b = FlexFloat(0.5, BINARY8)
        assert float(a - b) == 1.5

    def test_mul(self):
        a = FlexFloat(3.0, BINARY8)
        b = FlexFloat(0.5, BINARY8)
        assert float(a * b) == 1.5

    def test_div(self):
        a = FlexFloat(1.0, BINARY16)
        b = FlexFloat(3.0, BINARY16)
        assert float(a / b) == float(np.float16(1.0) / np.float16(3.0))

    def test_div_by_zero_gives_infinity(self):
        a = FlexFloat(1.0, BINARY16)
        z = FlexFloat(0.0, BINARY16)
        assert float(a / z) == math.inf
        assert float((-a) / z) == -math.inf

    def test_zero_div_zero_is_nan(self):
        z = FlexFloat(0.0, BINARY16)
        assert (z / z).is_nan()

    def test_neg_abs(self):
        x = FlexFloat(-1.5, BINARY8)
        assert float(-x) == 1.5
        assert float(abs(x)) == 1.5
        assert float(+x) == -1.5

    def test_python_float_operand_is_sanitized_first(self):
        # 1.1 is not representable in binary8; the literal must be rounded
        # before the addition, exactly like C++ implicit construction.
        x = FlexFloat(1.0, BINARY8)
        assert float(x + 1.1) == 2.0  # 1.0 + quantize(1.1) = 1.0 + 1.0

    def test_reflected_ops(self):
        x = FlexFloat(2.0, BINARY8)
        assert float(1.0 + x) == 3.0
        assert float(4.0 - x) == 2.0
        assert float(3.0 * x) == 6.0
        assert float(1.0 / x) == 0.5

    def test_overflow_to_infinity(self):
        big = FlexFloat(57344.0, BINARY8)
        assert (big + big).is_inf()

    @given(small_floats, small_floats)
    @settings(max_examples=300)
    def test_binary16_arithmetic_matches_numpy_half(self, a, b):
        ours = FlexFloat(a, BINARY16) * FlexFloat(b, BINARY16)
        with np.errstate(over="ignore"):
            theirs = np.float16(a) * np.float16(b)
        if math.isnan(float(theirs)):
            assert ours.is_nan()
        else:
            assert float(ours) == float(theirs)

    @given(small_floats, small_floats)
    @settings(max_examples=300)
    def test_addition_commutes(self, a, b):
        x = FlexFloat(a, BINARY16ALT)
        y = FlexFloat(b, BINARY16ALT)
        assert float(x + y) == float(y + x)


class TestFormatStrictness:
    def test_mixed_format_addition_raises(self):
        a = FlexFloat(1.0, BINARY16)
        b = FlexFloat(1.0, BINARY16ALT)
        with pytest.raises(FormatMismatchError):
            a + b

    def test_mixed_format_comparison_raises(self):
        a = FlexFloat(1.0, BINARY8)
        b = FlexFloat(1.0, BINARY32)
        with pytest.raises(FormatMismatchError):
            a < b

    def test_error_message_mentions_both_formats(self):
        a = FlexFloat(1.0, BINARY16)
        b = FlexFloat(1.0, BINARY8)
        with pytest.raises(FormatMismatchError, match="binary16.*binary8"):
            a * b

    def test_same_layout_different_name_is_compatible(self):
        # Formats compare by layout, not name.
        from repro.core import FPFormat

        a = FlexFloat(1.0, BINARY16)
        b = FlexFloat(2.0, FPFormat(5, 10))
        assert float(a + b) == 3.0

    def test_explicit_cast_resolves_mismatch(self):
        a = FlexFloat(1.0, BINARY16)
        b = FlexFloat(2.0, BINARY16ALT)
        assert float(a + b.cast(BINARY16)) == 3.0


class TestCast:
    def test_cast_loses_precision(self):
        x = FlexFloat(1.2001953125, BINARY16)  # representable in b16
        y = x.cast(BINARY8)
        assert float(y) == 1.25

    def test_cast_b8_to_b16_never_saturates(self):
        # Paper: binary8 mirrors binary16's range, conversions never clip.
        x = FlexFloat(57344.0, BINARY8)
        assert float(x.cast(BINARY16)) == 57344.0

    def test_cast_b16_to_b16alt_can_lose_precision_not_range(self):
        x = FlexFloat(60000.0, BINARY16)
        y = x.cast(BINARY16ALT)
        assert not y.is_inf()

    def test_cast_b32_to_b16_saturates_large_values(self):
        # 1e6 exceeds binary16's range: overflow to inf on conversion.
        x = FlexFloat(1.0e6, BINARY32)
        assert x.cast(BINARY16).is_inf()

    def test_cast_b32_to_b16alt_keeps_large_values(self):
        x = FlexFloat(1.0e6, BINARY32)
        y = x.cast(BINARY16ALT)
        assert not y.is_inf()
        assert abs(float(y) - 1.0e6) / 1.0e6 < 2.0 ** -7


class TestComparisons:
    def test_ordering(self):
        a = FlexFloat(1.0, BINARY8)
        b = FlexFloat(2.0, BINARY8)
        assert a < b and a <= b and b > a and b >= a and a != b

    def test_equality_with_python_float(self):
        assert FlexFloat(1.5, BINARY8) == 1.5
        assert FlexFloat(1.5, BINARY8) != 1.6

    def test_comparison_with_python_float(self):
        assert FlexFloat(1.5, BINARY8) < 2.0
        assert FlexFloat(1.5, BINARY8) >= 1.5

    def test_hash_consistent_with_eq(self):
        a = FlexFloat(1.5, BINARY8)
        b = FlexFloat(1.5, BINARY8)
        assert a == b and hash(a) == hash(b)

    def test_nan_not_equal_to_itself(self):
        n = FlexFloat(math.nan, BINARY16)
        assert n != n


class TestStatsIntegration:
    def test_ops_counted(self):
        stats = Stats()
        with collect(stats):
            x = FlexFloat(1.0, BINARY8)
            y = FlexFloat(2.0, BINARY8)
            x + y
            x * y
            x - y
            x / y
        assert stats.ops_named("add") == 1
        assert stats.ops_named("mul") == 1
        assert stats.ops_named("sub") == 1
        assert stats.ops_named("div") == 1
        assert stats.total_arith_ops() == 3  # div is not a slice op

    def test_casts_counted_with_pair(self):
        stats = Stats()
        with collect(stats):
            FlexFloat(1.0, BINARY32).cast(BINARY16ALT)
        assert stats.casts_by_pair() == {("binary32", "binary16alt"): 1}

    def test_no_counting_without_collector(self):
        stats = Stats()
        x = FlexFloat(1.0, BINARY8)
        x + x  # outside any collect() block
        assert stats.total_ops() == 0

    def test_neg_and_abs_are_free(self):
        stats = Stats()
        with collect(stats):
            x = FlexFloat(-1.0, BINARY8)
            -x
            abs(x)
        assert stats.total_ops() == 0


class TestConcretePayload:
    """Every FlexFloat holds a sanitized Python float, whatever built it."""

    @pytest.mark.parametrize(
        "produce", VALUE_PRODUCERS.values(), ids=VALUE_PRODUCERS
    )
    def test_float_returns_a_sanitized_python_float(self, backend, produce):
        for fmt in STANDARD_FORMATS:
            for x in produce(fmt):
                assert x.fmt == fmt
                # Call the method itself: float() would quietly convert
                # a float subclass such as numpy.float64.
                value = x.__float__()
                assert type(value) is float, (fmt.name, type(value))
                if not math.isnan(value):
                    assert quantize(value, fmt) == value, (fmt.name, value)
