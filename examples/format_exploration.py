"""Explore the precision/range trade-off for your own data.

Uses the range-analysis helper to answer the question behind the
paper's Fig. 1: given the values a variable actually takes and the
precision it needs, which storage format should it get?

Run with::

    python examples/format_exploration.py
"""

import numpy as np

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FlexFloatArray,
    quantize_array,
)
from repro.tuning import analyze_range, fitting_formats, sqnr_db
from repro.hardware import disassemble, KernelBuilder


def describe(name: str, values: np.ndarray) -> None:
    report = analyze_range(values)
    fits = fitting_formats(values)
    print(f"{name}:")
    print(f"  binades 2^{report.min_exponent} .. 2^{report.max_exponent} "
          f"({report.dynamic_range_db:.0f} dB) -> needs "
          f"{report.exponent_bits} exponent bits")
    print(f"  fitting formats: {', '.join(f.name for f in fits)}")
    for fmt in (BINARY8, BINARY16ALT, BINARY16, BINARY32):
        quantized = quantize_array(values, fmt)
        quality = sqnr_db(values, quantized)
        marker = "saturates!" if not np.all(np.isfinite(quantized)) else ""
        print(f"    {fmt.name:12s} SQNR {quality:6.1f} dB  {marker}")
    print()


def main() -> None:
    rng = np.random.default_rng(0)

    print("== Which format fits which data? ==\n")
    describe("sensor samples in [0, 1]", rng.uniform(0.0, 1.0, 512))
    describe("audio-like signal (+-2)", np.sin(np.linspace(0, 40, 512)) * 2)
    describe("energies around 1e6", rng.uniform(0.5e6, 2e6, 512))
    describe("mixed magnitudes 1e-4..1e4",
             10.0 ** rng.uniform(-4, 4, 512))

    print("== Peeking at the generated kernel code ==\n")
    xs, ys = [1.0, 2.0, 3.0, 4.0], [0.5] * 4
    b = KernelBuilder("axpy")
    x = b.alloc("x", xs, BINARY8)
    y = b.alloc("y", ys, BINARY8)
    out = b.zeros("out", 4, BINARY8)
    a = b.vconst([2.0] * 4, BINARY8)
    vx = b.load(x, 0, lanes=4)
    vy = b.load(y, 0, lanes=4)
    prod = b.fp("mul", BINARY8, a, vx)
    total = b.fp("add", BINARY8, prod, vy)
    b.store(out, 0, total)
    print(disassemble(b.program()))
    # The builder only emits; FlexFloat computes what the kernel does.
    result = (
        FlexFloatArray([2.0] * 4, BINARY8) * FlexFloatArray(xs, BINARY8)
        + FlexFloatArray(ys, BINARY8)
    )
    print(f"\nresult: {result.to_numpy()}")


if __name__ == "__main__":
    main()
