"""Failure injection: non-finite data and hostile configurations must
degrade loudly-but-gracefully, never corrupt state or loop forever."""

import math

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.base import Lockstep
from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FormatRows,
    quantize_array,
    use_backend,
)
from repro.core.ops import binary_array, tree_sum, unary_array
from repro.hardware import KernelBuilder, VirtualPlatform
from repro.tuning import (
    V2,
    DistributedSearch,
    VarSpec,
    sqnr_db,
    uniform_binding,
)
from tests.oracles import ValueBuilder

#: A lockstep batch of two bindings: one row in each format.
ROWS = FormatRows((BINARY8, BINARY16))


def on_each_backend():
    """Run the loop body once on each shipped backend."""
    for name in ("reference", "fast"):
        with use_backend(name):
            yield name


def per_row(values) -> np.ndarray:
    """``values`` on both rows, each rounded to its row's format."""
    return quantize_array(np.tile(values, (len(ROWS), 1)), ROWS)


class TestNonFinitePropagation:
    """NaN and Inf through the calls ``Lockstep.op`` and ``Lockstep.sum``
    make, on every row of a batch."""

    def test_nan_flows_through_array_pipeline(self):
        for _ in on_each_backend():
            a = per_row([1.0, math.nan, 2.0])
            square = binary_array("mul", a, a, ROWS)
            out = binary_array("add", square, per_row([1.0]), ROWS)
            assert np.isnan(out[:, 1]).all()
            assert np.isfinite(out[:, [0, 2]]).all()

    def test_inf_contaminates_tree_sum(self):
        for _ in on_each_backend():
            a = per_row([1.0, math.inf, 1.0, 1.0])
            assert np.isinf(tree_sum(a, ROWS)).all()

    def test_inf_minus_inf_is_nan(self):
        for _ in on_each_backend():
            inf = per_row([math.inf])
            assert np.isnan(binary_array("sub", inf, inf, ROWS)).all()

    def test_quantize_array_mixed_specials(self):
        data = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0])
        out = quantize_array(data, BINARY8)
        assert math.isnan(out[0])
        assert out[1] == math.inf and out[2] == -math.inf
        assert out[3] == 0.0 and out[4] == 0.0
        assert math.copysign(1.0, out[4]) < 0

    def test_fpu_propagates_nan(self):
        # The kernel's add (valued by the oracle builder) and the
        # lockstep add agree: NaN in, NaN out.
        builder = ValueBuilder("nan")
        reg = builder.fp("add", BINARY16, builder.fconst(math.nan, BINARY16),
                         builder.fconst(1.0, BINARY16))
        assert math.isnan(builder.values[reg])
        for _ in on_each_backend():
            out = binary_array("add", per_row([math.nan]), per_row([1.0]),
                               ROWS)
            assert np.isnan(out).all()

    def test_overflowing_vector_op(self):
        builder = ValueBuilder("overflow")
        reg = builder.fp("mul", BINARY8,
                         builder.vconst((57344.0,) * 4, BINARY8),
                         builder.vconst((2.0,) * 4, BINARY8))
        assert all(math.isinf(v) for v in builder.values[reg])
        # 114688 exceeds binary16's 65504 too: every row saturates.
        for _ in on_each_backend():
            out = binary_array("mul", per_row([57344.0] * 4),
                               per_row([2.0] * 4), ROWS)
            assert np.isposinf(out).all()

    def test_nan_row_does_not_leak_into_other_rows(self):
        for _ in on_each_backend():
            a = per_row([1.0, 2.0, 3.0, 4.0])
            a[0, 2] = math.nan
            total = tree_sum(a, ROWS)
            assert math.isnan(total[0]) and total[1] == 10.0
            square = binary_array("mul", a, a, ROWS)
            assert np.isfinite(square[1]).all()

    def test_negative_sqrt_is_nan_on_every_row(self):
        app = make_app("conv", "tiny")
        for _ in on_each_backend():
            lock = Lockstep(app, [uniform_binding(app, f) for f in ROWS])
            out = lock.sqrt(per_row([-4.0, 4.0]), ROWS)
            assert np.isnan(out[:, 0]).all()
            assert (out[:, 1] == 2.0).all()

    def test_cast_saturates_per_row(self):
        # 1e6 overflows the 5-bit exponent of binary8 and binary16 but
        # not binary16alt's 8 bits: each row saturates on its own.
        app = make_app("conv", "tiny")
        narrow = FormatRows((BINARY8, BINARY16, BINARY16ALT))
        wide = FormatRows((BINARY32,) * 3)
        for _ in on_each_backend():
            lock = Lockstep(app, [uniform_binding(app, f) for f in narrow])
            values = quantize_array(np.full((3, 2), 1.0e6), wide)
            out = lock.cast(values, wide, narrow)
            assert np.isposinf(out[:2]).all()
            assert np.isfinite(out[2]).all()


def _call_with_rows(call, values, rows):
    if call == "quantize_array":
        return quantize_array(values, rows)
    if call == "binary_array":
        return binary_array("add", values, values, rows)
    if call == "unary_array":
        return unary_array("sqrt", values, rows)
    return tree_sum(values, rows)


class TestMismatchedRows:
    """An array whose leading axis does not match its FormatRows is
    refused, never rounded row by row to the wrong formats."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize(
        "call", ["quantize_array", "binary_array", "unary_array", "tree_sum"]
    )
    def test_row_count_mismatch_rejected(self, call, backend):
        with use_backend(backend):
            with pytest.raises(ValueError, match="2 row formats"):
                _call_with_rows(call, np.ones((3, 4)), ROWS)


class TestSqnrUnderFailure:
    def test_nan_output_fails_any_target(self):
        assert sqnr_db([1.0], [math.nan]) == -math.inf

    def test_tuner_avoids_saturating_formats(self):
        class Saturating:
            """Values near 1e6: any 5-bit-exponent trial must fail."""

            name = "saturating"
            num_inputs = 1

            def variables(self):
                return [VarSpec("v", 8)]

            def run(self, binding, input_id=0):
                fmt = binding["v"]
                v = quantize_array(np.full(8, 1.0e6), fmt)
                scale = quantize_array(np.array(1.5), fmt)
                return binary_array("mul", v, scale, fmt)

        result = DistributedSearch(Saturating(), V2, 10.0).tune()
        fmt = V2.storage_format(result.precision["v"])
        assert fmt.exp_bits == 8  # escaped the saturating intervals


class TestBuilderGuards:
    def test_out_of_bounds_store(self):
        b = KernelBuilder("g")
        arr = b.alloc("a", [0.0], BINARY8)
        v = b.fconst(1.0, BINARY8)
        with pytest.raises(IndexError):
            b.store(arr, 5, v)

    def test_program_with_nan_data_still_times(self):
        # Timing and energy are value-independent: a NaN-poisoned kernel
        # must still produce a full report, and (through the value
        # oracle, which emits the same stream) a NaN result.
        programs = []
        for builder in (KernelBuilder, ValueBuilder):
            b = builder("nan")
            arr = b.alloc("a", [math.nan, 1.0], BINARY16)
            out = b.zeros("out", 1, BINARY16)
            x = b.load(arr, 0)
            y = b.load(arr, 1)
            s = b.fp("add", BINARY16, x, y)
            b.store(out, 0, s)
            programs.append(b.program())
        shipped, oracle = programs
        report = VirtualPlatform().run(shipped)
        assert report.cycles > 0
        assert report.to_payload() == (
            VirtualPlatform().run(oracle).to_payload()
        )
        assert math.isnan(oracle.output("out")[0])

    def test_cast_without_fp_side_rejected(self):
        b = KernelBuilder("g")
        v = b.li(1)
        with pytest.raises(ValueError, match="FP side"):
            b.cast(v, None, None)


class TestEmptyPrograms:
    def test_empty_platform_run(self):
        report = VirtualPlatform().run(KernelBuilder("e").program())
        assert report.cycles == 0
        assert report.energy_pj == 0.0
        assert report.memory_accesses == 0

    def test_empty_array_operations(self):
        app = make_app("conv", "tiny")
        for _ in on_each_backend():
            lock = Lockstep(app, [uniform_binding(app, f) for f in ROWS])
            empty = per_row(np.zeros(0))
            assert np.array_equal(lock.sum(empty, ROWS), [0.0, 0.0])
            assert lock.op("add", empty, empty, ROWS).size == 0
