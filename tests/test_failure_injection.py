"""Failure injection: non-finite data and hostile configurations must
degrade loudly-but-gracefully, never corrupt state or loop forever."""

import math

import numpy as np
import pytest

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY32,
    FlexFloat,
    FlexFloatArray,
    quantize_array,
)
from repro.hardware import KernelBuilder, VirtualPlatform
from repro.hardware.fpu import TransprecisionFPU
from repro.tuning import V2, DistributedSearch, VarSpec, sqnr_db
from tests.oracles import ValueBuilder


class TestNonFinitePropagation:
    def test_nan_flows_through_array_pipeline(self):
        a = FlexFloatArray([1.0, math.nan, 2.0], BINARY8)
        out = (a * a) + 1.0
        assert math.isnan(out.to_numpy()[1])
        assert np.isfinite(out.to_numpy()[[0, 2]]).all()

    def test_inf_contaminates_tree_sum(self):
        a = FlexFloatArray([1.0, math.inf, 1.0, 1.0], BINARY16)
        assert math.isinf(float(a.sum()))

    def test_inf_minus_inf_is_nan(self):
        inf = FlexFloat(math.inf, BINARY16)
        assert (inf - inf).is_nan()

    def test_quantize_array_mixed_specials(self):
        data = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0])
        out = quantize_array(data, BINARY8)
        assert math.isnan(out[0])
        assert out[1] == math.inf and out[2] == -math.inf
        assert out[3] == 0.0 and out[4] == 0.0
        assert math.copysign(1.0, out[4]) < 0

    def test_fpu_propagates_nan(self):
        fpu = TransprecisionFPU()
        res = fpu.arith("add", BINARY16, math.nan, 1.0)
        assert math.isnan(res.value)

    def test_overflowing_vector_op(self):
        fpu = TransprecisionFPU()
        res = fpu.arith("mul", BINARY8, (57344.0,) * 4, (2.0,) * 4)
        assert all(math.isinf(v) for v in res.values)


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
                v = FlexFloatArray(np.full(8, 1.0e6), binding["v"])
                return (v * 1.5).to_numpy()

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
        a = FlexFloatArray([], BINARY32)
        assert float(a.sum()) == 0.0
        assert (a + a).size == 0
