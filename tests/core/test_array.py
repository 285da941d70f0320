"""Tests for FlexFloatArray: elementwise semantics, reductions, casts,
stats accounting, and scalar/array agreement."""

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
    use_backend,
    vectorizable,
)
from repro.core.ops import tree_sum
from tests.flexfloat import (
    FlexFloat,
    FlexFloatArray,
    FormatMismatchError,
    sqrt,
)


@pytest.fixture(params=["reference", "fast"])
def backend(request):
    """Run the test body on each shipped backend."""
    with use_backend(request.param):
        yield request.param


def assert_same_values(got: np.ndarray, want: np.ndarray) -> None:
    """Equal elementwise, NaN matching NaN, and zeros of equal sign."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


#: Ordered pairs of distinct standard formats, for the cast matrix.
CAST_PAIRS = [
    (src, dst)
    for src in STANDARD_FORMATS
    for dst in STANDARD_FORMATS
    if src != dst
]

#: Every way an array operation builds a new payload, applied to a 2x3
#: binary16 array.
PAYLOAD_PRODUCERS = {
    "from_ints": lambda a: FlexFloatArray([1, 2, 3], BINARY16),
    "from_scalar": lambda a: FlexFloatArray(2.5, BINARY16),
    "cast": lambda a: a.cast(BINARY8),
    "binary": lambda a: a * a,
    "numpy_operand": lambda a: a + np.arange(3),
    "neg": lambda a: -a,
    "abs": lambda a: abs(a),
    "sqrt": lambda a: sqrt(abs(a)),
    "sum_axis": lambda a: a.sum(axis=0),
    "slice": lambda a: a[1:],
    "take": lambda a: a.take([0, 1]),
    "reshape": lambda a: a.reshape(-1),
    "transpose": lambda a: a.T,
    "copy": lambda a: a.copy(),
}

small_lists = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1,
    max_size=24,
)


class TestConstruction:
    def test_payload_is_sanitized(self):
        a = FlexFloatArray([1.1, 2.2], BINARY8)
        np.testing.assert_array_equal(a.to_numpy(), [1.0, 2.0])

    def test_shape_size_ndim(self, backend):
        a = FlexFloatArray(np.zeros((2, 3)), BINARY16)
        assert a.shape == (2, 3)
        assert a.size == 6
        assert a.ndim == 2
        assert len(a) == 2
        z = FlexFloatArray(1.5, BINARY16)
        assert z.shape == ()
        assert z.size == 1
        assert z.ndim == 0

    def test_from_flexfloat_scalar(self):
        x = FlexFloat(1.5, BINARY16)
        a = FlexFloatArray(x, BINARY8)
        assert float(a[()]) == 1.5

    def test_to_numpy_returns_copy(self):
        a = FlexFloatArray([1.0], BINARY8)
        buf = a.to_numpy()
        buf[0] = 99.0
        assert float(a[0]) == 1.0

    @pytest.mark.parametrize(
        "produce", PAYLOAD_PRODUCERS.values(), ids=PAYLOAD_PRODUCERS
    )
    def test_to_numpy_is_an_owned_float64_copy(self, backend, produce):
        # The payload is always a float64 ndarray, so to_numpy() needs
        # no conversion: whatever op built the array, the caller gets a
        # float64 buffer of the logical shape that it may freely write.
        a = FlexFloatArray([[1.5, -2.0, 3.25], [0.5, 4.0, -1.0]], BINARY16)
        out = produce(a)
        buf = out.to_numpy()
        assert type(buf) is np.ndarray
        assert buf.dtype == np.float64
        assert buf.shape == out.shape
        before = buf.copy()
        buf[...] = 99.0
        assert_same_values(out.to_numpy(), before)


class TestElementwise:
    def test_add(self):
        a = FlexFloatArray([1.0, 2.0], BINARY8)
        b = FlexFloatArray([0.5, 0.5], BINARY8)
        np.testing.assert_array_equal((a + b).to_numpy(), [1.5, 2.5])

    def test_add_ties_round_to_even(self):
        # 2 + 0.25 = 2.25 lies halfway between 2.0 and 2.5 in binary8;
        # round-to-nearest-even picks 2.0.
        a = FlexFloatArray([2.0], BINARY8)
        b = FlexFloatArray([0.25], BINARY8)
        assert float((a + b)[0]) == 2.0

    def test_result_rounded_to_format(self):
        a = FlexFloatArray([1.0], BINARY16)
        b = FlexFloatArray([2.0 ** -11], BINARY16)
        assert float((a + b)[0]) == 1.0

    def test_scalar_broadcast(self):
        a = FlexFloatArray([1.0, 2.0], BINARY8)
        np.testing.assert_array_equal((a * 2.0).to_numpy(), [2.0, 4.0])
        np.testing.assert_array_equal((2.0 * a).to_numpy(), [2.0, 4.0])

    def test_flexfloat_scalar_operand(self):
        a = FlexFloatArray([1.0, 2.0], BINARY8)
        s = FlexFloat(0.5, BINARY8)
        np.testing.assert_array_equal((a - s).to_numpy(), [0.5, 1.5])

    def test_numpy_operand_is_sanitized(self):
        a = FlexFloatArray([0.0], BINARY8)
        out = a + np.array([1.1])
        assert float(out[0]) == 1.0

    def test_mismatched_formats_raise(self):
        a = FlexFloatArray([1.0], BINARY8)
        b = FlexFloatArray([1.0], BINARY16)
        with pytest.raises(FormatMismatchError):
            a + b

    def test_mismatched_scalar_raises(self):
        a = FlexFloatArray([1.0], BINARY8)
        with pytest.raises(FormatMismatchError):
            a + FlexFloat(1.0, BINARY16)

    def test_division_by_zero_elementwise(self):
        a = FlexFloatArray([1.0, 0.0], BINARY16)
        b = FlexFloatArray([0.0, 0.0], BINARY16)
        out = (a / b).to_numpy()
        assert out[0] == math.inf
        assert math.isnan(out[1])

    def test_neg_abs(self, backend):
        xs = [-1.0, 2.0, 0.0, -0.0, math.inf, -math.inf, math.nan]
        a = FlexFloatArray(xs, BINARY8)
        neg = (-a).to_numpy()
        np.testing.assert_array_equal(
            neg, [1.0, -2.0, -0.0, 0.0, -math.inf, math.inf, math.nan]
        )
        # Negation is a sign-bit flip on every element, zeros and NaN
        # included; abs clears the sign bit.
        np.testing.assert_array_equal(
            np.signbit(neg), ~np.signbit(a.to_numpy())
        )
        mag = abs(a).to_numpy()
        np.testing.assert_array_equal(
            mag, [1.0, 2.0, 0.0, 0.0, math.inf, math.inf, math.nan]
        )
        assert not np.signbit(mag).any()
        assert (-a).fmt == abs(a).fmt == BINARY8

    @given(small_lists)
    @settings(max_examples=150)
    def test_array_op_matches_scalar_loop(self, xs):
        a = FlexFloatArray(xs, BINARY8)
        b = FlexFloatArray(list(reversed(xs)), BINARY8)
        out = (a * b).to_numpy()
        for i in range(len(xs)):
            want = FlexFloat(float(a[i]), BINARY8) * FlexFloat(
                float(b[i]), BINARY8
            )
            assert float(out[i]) == float(want)


class TestIndexing:
    def test_scalar_indexing_returns_flexfloat(self):
        a = FlexFloatArray([1.5, 2.5], BINARY8)
        x = a[0]
        assert isinstance(x, FlexFloat)
        assert x.fmt == BINARY8
        assert float(x) == 1.5

    def test_slice_returns_array(self):
        a = FlexFloatArray([1.0, 2.0, 3.0], BINARY8)
        sub = a[1:]
        assert isinstance(sub, FlexFloatArray)
        np.testing.assert_array_equal(sub.to_numpy(), [2.0, 3.0])

    def test_setitem_sanitizes_raw_values(self):
        a = FlexFloatArray([0.0], BINARY8)
        a[0] = 1.1
        assert float(a[0]) == 1.0

    def test_setitem_rejects_foreign_format(self):
        a = FlexFloatArray([0.0], BINARY8)
        with pytest.raises(FormatMismatchError):
            a[0] = FlexFloat(1.0, BINARY16)

    def test_setitem_same_format_array(self):
        a = FlexFloatArray([0.0, 0.0], BINARY8)
        a[:] = FlexFloatArray([1.0, 2.0], BINARY8)
        np.testing.assert_array_equal(a.to_numpy(), [1.0, 2.0])

    def test_iteration(self):
        a = FlexFloatArray([1.0, 2.0], BINARY8)
        assert [float(x) for x in a] == [1.0, 2.0]


class TestReductions:
    def test_sum_of_empty_is_zero(self):
        assert float(FlexFloatArray([], BINARY8).sum()) == 0.0

    def test_sum_single(self):
        assert float(FlexFloatArray([2.5], BINARY8).sum()) == 2.5

    def test_sum_rounds_at_each_level(self):
        # In binary8 (3 significant bits), 4 + 0.25 rounds to 4: a float64
        # sum would give 17 -> 16, the tree with sanitization gives 16 too,
        # but 8 elements of 1.0 accumulate exactly.
        a = FlexFloatArray([1.0] * 8, BINARY8)
        assert float(a.sum()) == 8.0

    def test_sum_saturation_behaviour(self):
        # Tree sum of many maxvals overflows to inf, as hardware would.
        a = FlexFloatArray([57344.0] * 4, BINARY8)
        assert FlexFloat(float(a.sum()), BINARY8).is_inf()

    @given(small_lists)
    @settings(max_examples=100)
    def test_sum_close_to_float64(self, xs):
        a = FlexFloatArray(xs, BINARY16)
        exact = float(np.sum(a.to_numpy()))
        got = float(a.sum())
        scale = max(float(np.sum(np.abs(a.to_numpy()))), 1e-9)
        assert abs(got - exact) <= scale * 2.0 ** -10 * math.ceil(
            math.log2(len(xs)) + 1
        )

    def test_dot(self):
        a = FlexFloatArray([1.0, 2.0, 3.0], BINARY16)
        b = FlexFloatArray([4.0, 5.0, 6.0], BINARY16)
        assert float(a.dot(b)) == 32.0

    def test_min_max(self, backend):
        a = FlexFloatArray([3.0, -1.0, 2.0], BINARY8)
        stats = Stats()
        with collect(stats):
            lo, hi = a.min(), a.max()
        assert float(lo) == -1.0
        assert float(hi) == 3.0
        assert isinstance(lo, FlexFloat) and isinstance(hi, FlexFloat)
        assert lo.fmt == hi.fmt == BINARY8
        assert stats.ops_named("min") == a.size - 1
        assert stats.ops_named("max") == a.size - 1
        with_nan = FlexFloatArray([1.0, math.nan, 2.0], BINARY8)
        assert with_nan.min().is_nan()
        assert with_nan.max().is_nan()

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_sum_along_axis_is_a_tree_sum_per_row(self, backend, axis):
        rng = np.random.default_rng(7)
        a = FlexFloatArray(rng.normal(0.0, 10.0, (2, 3, 5)), BINARY16ALT)
        stats = Stats()
        with collect(stats):
            out = a.sum(axis=axis)
        rows = np.moveaxis(a.to_numpy(), axis, -1)
        lead, n = rows.shape[:-1], rows.shape[-1]
        want = [
            tree_sum(row.reshape(1, n), BINARY16ALT)[0]
            for row in rows.reshape(-1, n)
        ]
        assert isinstance(out, FlexFloatArray)
        assert out.fmt == BINARY16ALT
        assert out.shape == lead
        np.testing.assert_array_equal(
            out.to_numpy(), np.reshape(want, lead)
        )
        assert stats.ops_named("add") == (n - 1) * math.prod(lead)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_sum_along_an_axis_of_an_empty_array(self, backend, axis):
        a = FlexFloatArray(np.zeros((0, 3)), BINARY16)
        stats = Stats()
        with collect(stats):
            out = a.sum(axis=axis)
        want = np.zeros((0, 3)).sum(axis=axis)
        assert out.shape == want.shape
        assert out.fmt == BINARY16
        assert_same_values(out.to_numpy(), want)
        assert stats.ops_named("add") == 0

    def test_binary64_sum_matches_pairwise(self):
        xs = [0.1, 0.2, 0.3, 0.4]
        a = FlexFloatArray(xs, BINARY64)
        work = np.array(xs)
        want = float((work[0] + work[1]) + (work[2] + work[3]))
        assert float(a.sum()) == want


class TestCastAndShape:
    def test_cast_counts_elementwise(self, backend):
        a = FlexFloatArray(np.linspace(-3.0, 3.0, 10), BINARY32)
        by_cast, by_ctor = Stats(), Stats()
        with collect(by_cast):
            cast = a.cast(BINARY8)
        with collect(by_ctor):
            converted = FlexFloatArray(a, BINARY8)
        assert by_cast.casts_by_pair() == {("binary32", "binary8"): 10}
        assert by_ctor.casts_by_pair() == by_cast.casts_by_pair()
        assert converted.fmt == cast.fmt == BINARY8
        np.testing.assert_array_equal(
            converted.to_numpy().view(np.uint64),
            cast.to_numpy().view(np.uint64),
        )

    @pytest.mark.parametrize(
        "src,dst",
        CAST_PAIRS,
        ids=[f"{src.name}-{dst.name}" for src, dst in CAST_PAIRS],
    )
    def test_cast_matches_scalar_cast(self, backend, src, dst):
        rng = np.random.default_rng(5)
        raw = np.concatenate(
            [
                rng.normal(0.0, 1.0, 24) * 2.0 ** rng.integers(-40, 40, 24),
                [0.0, -0.0, math.inf, -math.inf, math.nan],
                [1e-300, 2.0 ** -20, 70000.0, -3.4e38, 1e300],
            ]
        )
        a = FlexFloatArray(raw, src)
        source = a.to_numpy()
        want = np.array([float(x.cast(dst)) for x in a])
        stats = Stats()
        with collect(stats):
            out = a.cast(dst)
        assert out.fmt == dst
        assert_same_values(out.to_numpy(), want)
        assert_same_values(a.to_numpy(), source)
        assert stats.casts_by_pair() == {(src.name, dst.name): a.size}
        assert stats.total_arith_ops() == 0

    def test_cast_changes_values(self):
        a = FlexFloatArray([1.2001953125], BINARY16).cast(BINARY8)
        assert float(a[0]) == 1.25

    def test_reshape(self, backend):
        a = FlexFloatArray(np.arange(6, dtype=float), BINARY16)
        assert a.reshape(2, 3).shape == (2, 3)
        assert a.reshape(-1, 2).shape == (3, 2)
        assert a.reshape((3, -1)).shape == (3, 2)
        np.testing.assert_array_equal(
            a.reshape(-1, 3).to_numpy(), np.arange(6.0).reshape(2, 3)
        )

    def test_transpose(self, backend):
        a = FlexFloatArray(np.arange(6, dtype=float).reshape(2, 3), BINARY16)
        assert a.T.shape == (3, 2)
        assert a.transpose().shape == (3, 2)
        cube = np.arange(24, dtype=float).reshape(2, 3, 4)
        b = FlexFloatArray(cube, BINARY16)
        assert b.T.shape == (4, 3, 2)
        np.testing.assert_array_equal(b.T.to_numpy(), cube.T)
        np.testing.assert_array_equal(b.transpose().to_numpy(), cube.T)

    def test_copy_is_independent(self):
        a = FlexFloatArray([1.0], BINARY8)
        b = a.copy()
        b[0] = 2.0
        assert float(a[0]) == 1.0


class TestStatsAccounting:
    def test_elementwise_count_matches_size(self):
        stats = Stats()
        with collect(stats):
            a = FlexFloatArray(np.ones(7), BINARY8)
            a + a
        assert stats.ops_named("add") == 7

    def test_sum_counts_n_minus_1_adds(self):
        stats = Stats()
        with collect(stats):
            FlexFloatArray(np.ones(9), BINARY16).sum()
        assert stats.ops_named("add") == 8

    def test_vectorizable_region_flag(self):
        stats = Stats()
        with collect(stats):
            a = FlexFloatArray(np.ones(4), BINARY8)
            a + a  # scalar region
            with vectorizable():
                a * a  # vector region
        assert stats.ops_by_format(vector=False) == {"binary8": 4}
        assert stats.ops_by_format(vector=True) == {"binary8": 4}

    def test_nested_collectors_both_record(self):
        outer, inner = Stats(), Stats()
        with collect(outer):
            a = FlexFloatArray(np.ones(3), BINARY8)
            with collect(inner):
                a + a
            a * a
        assert inner.total_arith_ops() == 3
        assert outer.total_arith_ops() == 6
