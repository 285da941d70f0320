"""Microbenchmarks of the library's hot paths.

These guard the property that makes the reproduction practical: the
FlexFloat emulation must stay fast enough for hundreds of tuner runs
(the paper's argument for backing values with native doubles instead of
bit-level software floats).
"""

import numpy as np
import pytest

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    FlexFloat,
    FlexFloatArray,
    quantize,
    quantize_array,
)
from repro.core.quantize import decode_array, encode_array
from repro.hardware import simulate_program_timing
from repro.hardware.fpu import TransprecisionFPU


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(11)
    return rng.normal(0.0, 100.0, 4096)


class TestQuantization:
    def test_quantize_array_binary16alt(self, benchmark, payload):
        out = benchmark(quantize_array, payload, BINARY16ALT)
        assert out.shape == payload.shape

    def test_quantize_array_binary8(self, benchmark, payload):
        out = benchmark(quantize_array, payload, BINARY8)
        assert np.all(np.isfinite(out))

    def test_quantize_scalar(self, benchmark):
        result = benchmark(quantize, 3.14159, BINARY16)
        assert result == float(np.float16(3.14159))

    def test_encode_decode_roundtrip(self, benchmark, payload):
        def roundtrip():
            return decode_array(encode_array(payload, BINARY16), BINARY16)

        out = benchmark(roundtrip)
        assert out.shape == payload.shape


class TestEmulationOps:
    def test_array_multiply(self, benchmark, payload):
        a = FlexFloatArray(payload, BINARY16ALT)
        b = FlexFloatArray(payload[::-1].copy(), BINARY16ALT)
        out = benchmark(lambda: a * b)
        assert out.size == payload.size

    def test_array_tree_sum(self, benchmark, payload):
        a = FlexFloatArray(payload, BINARY16ALT)
        result = benchmark(a.sum)
        assert isinstance(result, FlexFloat)

    def test_scalar_op_chain(self, benchmark):
        x = FlexFloat(1.5, BINARY8)
        y = FlexFloat(0.25, BINARY8)

        def chain():
            return (x + y) * x - y

        result = benchmark(chain)
        assert isinstance(result, FlexFloat)


class TestHardwareModels:
    def test_fpu_simd_throughput(self, benchmark):
        fpu = TransprecisionFPU()
        lanes = (1.0, 2.0, 3.0, 4.0)

        def op():
            return fpu.arith("mul", BINARY8, lanes, lanes)

        result = benchmark(op)
        assert result.latency == 1

    def test_pipeline_replay(self, benchmark):
        from repro.apps import make_app

        app = make_app("conv", "small")
        program = app.build_program(app.baseline_binding(), 0)
        program.columns()  # lowering is cached: time the replay alone
        timing = benchmark(simulate_program_timing, program)
        assert timing.cycles >= timing.instructions

    def test_kernel_build(self, benchmark):
        from repro.apps import make_app

        app = make_app("dwt", "small")

        def build():
            return app.build_program(app.baseline_binding(), 0)

        program = benchmark(build)
        assert len(program) > 0
