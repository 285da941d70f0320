"""Micro-tests for the centered-interval abstract domain."""

import math

import numpy as np
import pytest

from repro.core import (
    BINARY16,
    BINARY64,
    STANDARD_FORMATS,
    FlexFloat,
    FlexFloatArray,
)
from repro.core.backend import FastNumpyBackend
from repro.core.context import ExecutionContext, activate_context
from repro.static import AbstractBackend, AbstractScalar, AnalysisLog
from repro.static.domain import _SLACK


def abstract_context(log=None):
    return activate_context(ExecutionContext(AbstractBackend(log=log)))


class TestFormatBound:
    """The per-format rounding bound must dominate real quantization."""

    @pytest.mark.parametrize("fmt", STANDARD_FORMATS, ids=lambda f: f.name)
    def test_bound_dominates_real_error(self, fmt):
        rng = np.random.default_rng(11)
        exact = FastNumpyBackend()
        # Mixed magnitudes, both signs, including subnormal territory.
        values = np.concatenate(
            [
                rng.uniform(-4.0, 4.0, 200),
                rng.uniform(-1.0, 1.0, 100) * 2.0 ** rng.integers(
                    -30, 20, 100
                ),
            ]
        )
        q = np.asarray(exact.quantize_array(values, fmt), dtype=np.float64)
        bound = AbstractBackend._format_bound(np.abs(values), fmt)
        finite = np.isfinite(q)
        err = np.abs(q[finite] - values[finite])
        assert np.all(err <= bound[finite] * _SLACK)
        # Saturated values map to an infinite bound contribution or are
        # flagged elsewhere; here we only require the finite contract.

    def test_zero_is_exact(self):
        bound = AbstractBackend._format_bound(np.array([0.0]), BINARY16)
        assert float(bound[0]) == 0.0


class TestLogicalShapes:
    """FlexFloatArray semantics must survive the trailing pair axis."""

    def test_shape_size_ndim(self):
        with abstract_context():
            a = FlexFloatArray(np.ones((3, 4)), BINARY64)
            assert a.shape == (3, 4)
            assert a.size == 12
            assert a.ndim == 2

    def test_reshape_and_transpose(self):
        with abstract_context():
            a = FlexFloatArray(np.arange(12, dtype=float), BINARY64)
            b = a.reshape(3, 4)
            assert b.shape == (3, 4)
            assert b.reshape(-1).shape == (12,)
            assert b.transpose().shape == (4, 3)

    def test_arithmetic_broadcast(self):
        with abstract_context():
            a = FlexFloatArray(np.ones((2, 3)), BINARY64)
            b = FlexFloatArray(np.full(3, 2.0), BINARY64)
            c = a + b
            assert c.shape == (2, 3)
            pairs = np.asarray(c._data, dtype=np.float64)
        # The physical payload carries the trailing center/radius axis.
        assert pairs.shape == (2, 3, 2)
        assert np.allclose(pairs[..., 0], 3.0)

    def test_sum_and_minmax(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        with abstract_context():
            a = FlexFloatArray(data, BINARY64)
            total = float(a.sum())
            low = float(a.min())
            high = float(a.max())
        assert total == pytest.approx(10.0)
        assert low == pytest.approx(1.0)
        assert high == pytest.approx(4.0)


class TestIntervalSoundness:
    """Sampled concrete trajectories stay inside abstract intervals."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_ops_contain_binary16_results(self, op):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.5, 3.0, 64)
        ys = rng.uniform(0.5, 3.0, 64)

        exact = FastNumpyBackend()
        import operator

        pyop = {
            "add": operator.add,
            "sub": operator.sub,
            "mul": operator.mul,
            "div": operator.truediv,
        }[op]

        with abstract_context():
            a = FlexFloatArray(xs, BINARY64)
            b = FlexFloatArray(ys, BINARY64)
            pairs = np.asarray(pyop(a, b)._data, dtype=np.float64)
        centers, radii = pairs[..., 0], pairs[..., 1]

        qa = np.asarray(exact.quantize_array(xs, BINARY16), dtype=float)
        qb = np.asarray(exact.quantize_array(ys, BINARY16), dtype=float)
        concrete = np.asarray(
            exact.binary_array(op, qa, qb, BINARY16), dtype=float
        )
        assert np.all(np.abs(concrete - centers) <= radii)


class TestScalarsAndTaint:
    def test_scalar_collapse_taints(self):
        log = AnalysisLog()
        with abstract_context(log=log):
            x = FlexFloat(1.5, BINARY64)
            value = float(x)
        assert value == pytest.approx(1.5)
        assert log.scalar_collapses == 1
        assert log.collapsed

    def test_abstract_scalar_comparisons(self):
        backend = AbstractBackend()
        two = backend.quantize(2.0, BINARY64)
        three = backend.quantize(3.0, BINARY64)
        assert isinstance(two, AbstractScalar)
        assert two < three
        assert three > two
        assert two != three
        assert float(abs(-two)) == pytest.approx(2.0)

    def test_zero_buffer_after_collapse_stays_exact(self):
        log = AnalysisLog()
        log.note_array_collapse(np.array([1.0]), np.array([0.0]))
        assert log.array_collapse_open and not log.collapsed
        log.note_concrete_store(scalar=False, logical_size=8, nonzero=False)
        assert not log.collapsed  # all-zero buffers are binding-free
        log.note_concrete_store(scalar=False, logical_size=8, nonzero=True)
        assert log.collapsed

    def test_size_one_literal_exempt(self):
        log = AnalysisLog()
        log.note_array_collapse()
        log.note_concrete_store(scalar=False, logical_size=1, nonzero=True)
        assert not log.collapsed
        log.note_concrete_store(scalar=True, logical_size=1, nonzero=True)
        assert log.collapsed

    def test_collapse_hull_grows(self):
        log = AnalysisLog()
        log.note_array_collapse(np.array([-2.0, 5.0]), np.array([1.0, 1.0]))
        assert log.collapse_lo <= -3.0
        assert log.collapse_hi >= 6.0
