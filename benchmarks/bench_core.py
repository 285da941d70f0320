"""Microbenchmarks of the library's hot paths.

These time what the reproduction's workloads run: quantization, the
kernel build and the pipeline replay.  The emulated arithmetic must stay
fast enough for hundreds of tuner runs (the paper's argument for backing
values with native doubles instead of bit-level software floats);
``bench_backends.py`` times its array operations on both backends.
"""

import numpy as np
import pytest

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    quantize,
    quantize_array,
)
from repro.core.quantize import decode_array, encode_array
from repro.hardware import simulate_program_timing


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


class TestHardwareModels:
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
