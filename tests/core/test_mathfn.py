"""Tests for the math outside the FPU's computational slices.

The square root runs on the FlexFloat oracle types (:mod:`tests.flexfloat`)
and, like ``exp`` and ``log``, on the backends' ``unary_array``.  Min,
max, absolute value and clamping round nothing: the lockstep numeric
forms apply them to float64 payloads directly (jacobi's residual takes a
max and only counts it), which is sound because they return values
already representable in each row's format.
"""

import math

import numpy as np

from repro.apps import make_app
from repro.apps.base import Lockstep
from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FormatRows,
    collect,
    quantize_array,
    use_backend,
)
from repro.core.ops import unary_array
from repro.tuning import uniform_binding
from tests.flexfloat import FlexFloat, FlexFloatArray, sqrt

#: One candidate row per format the FPU hosts.
ROWS = FormatRows((BINARY8, BINARY16, BINARY16ALT, BINARY32))

BACKENDS = ("reference", "fast")


def unary(op, values, fmt):
    """``op`` of ``values`` on the shipped backends, which must agree."""
    values = np.asarray(values, dtype=np.float64)
    outs = []
    for name in BACKENDS:
        with use_backend(name):
            outs.append(unary_array(op, values, fmt))
    np.testing.assert_array_equal(outs[0], outs[1])
    return outs[0]


def sanitized_rows(seed):
    """Random values on every row of :data:`ROWS`, each rounded to its
    row's format."""
    rng = np.random.default_rng(seed)
    return quantize_array(rng.normal(0, 50, (len(ROWS), 64)), ROWS)


def assert_unrounded(values, fmt):
    """``values`` are representable: no backend's quantizer moves them."""
    for name in BACKENDS:
        with use_backend(name):
            np.testing.assert_array_equal(quantize_array(values, fmt), values)


class TestScalar:
    def test_sqrt(self):
        x = FlexFloat(4.0, BINARY16)
        assert float(sqrt(x)) == 2.0

    def test_sqrt_rounds_to_format(self):
        x = FlexFloat(2.0, BINARY8)
        assert float(sqrt(x)) == 1.5  # sqrt(2)=1.414 -> b8 grid

    def test_sqrt_of_negative_is_nan(self):
        assert sqrt(FlexFloat(-1.0, BINARY16)).is_nan()

    def test_exp(self):
        assert unary("exp", [0.0], BINARY16)[0] == 1.0

    def test_exp_overflows_to_inf(self):
        assert np.isposinf(unary("exp", [100.0], BINARY8)[0])

    def test_log(self):
        assert unary("log", [1.0], BINARY32)[0] == 0.0

    def test_fmin_fmax(self):
        a, b = sanitized_rows(1), sanitized_rows(2)
        for out in (np.minimum(a, b), np.maximum(a, b)):
            assert ((out == a) | (out == b)).all()
            assert_unrounded(out, ROWS)
        # The lockstep form counts a max in each row's own format.
        app = make_app("conv", "tiny")
        with collect() as stats:
            lock = Lockstep(app, [uniform_binding(app, f) for f in ROWS])
            lock.count(ROWS, "max", 5)
        assert stats.ops_named("max") == 5 * len(ROWS)
        assert {key.fmt for key in stats.ops} == {f.name for f in ROWS}
        assert stats.total_arith_ops() == 0

    def test_clamp(self):
        x = quantize_array(np.array([5.0]), BINARY8)
        assert np.clip(x, 0.0, 2.0)[0] == 2.0
        assert np.clip(x, 6.0, 8.0)[0] == 6.0
        assert np.clip(x, 0.0, 10.0)[0] == x[0]
        low = quantize_array(np.full((len(ROWS), 1), -10.1), ROWS)
        high = quantize_array(np.full((len(ROWS), 1), 20.3), ROWS)
        assert_unrounded(np.clip(sanitized_rows(3), low, high), ROWS)

    def test_fabs(self):
        x = quantize_array(np.array([-2.0]), BINARY8)
        assert np.abs(x)[0] == 2.0
        a = sanitized_rows(4)
        assert (np.abs(a) == np.where(a < 0, -a, a)).all()
        assert_unrounded(np.abs(a), ROWS)


class TestArray:
    def test_sqrt_elementwise(self):
        a = FlexFloatArray([1.0, 4.0, 9.0], BINARY16)
        np.testing.assert_array_equal(
            sqrt(a).to_numpy(), [1.0, 2.0, 3.0]
        )

    def test_exp_elementwise_sanitized(self):
        out = unary("exp", [0.0, 1.0], BINARY8)
        assert out[0] == 1.0
        assert out[1] == 2.5  # e = 2.718 on the 3-significant-bit grid
        rows = unary("exp", np.tile([0.0, 1.0, 2.0], (len(ROWS), 1)), ROWS)
        assert_unrounded(rows, ROWS)

    def test_negative_sqrt_elementwise_is_nan(self):
        a = FlexFloatArray([-1.0], BINARY16)
        assert math.isnan(sqrt(a).to_numpy()[0])


class TestStats:
    def test_named_ops_recorded(self):
        with collect() as stats:
            sqrt(FlexFloat(4.0, BINARY16))
        assert stats.ops_named("sqrt") == 1
        # Not arithmetic slice ops:
        assert stats.total_arith_ops() == 0
