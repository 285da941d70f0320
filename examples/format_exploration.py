"""Explore the precision/range trade-off for your own data.

Answers the question behind the paper's Fig. 1: given the values a
variable actually takes and the precision it needs, which storage format
should it get?

Run with::

    python examples/format_exploration.py
"""

import numpy as np

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    STANDARD_FORMATS,
    quantize_array,
)
from repro.core.ops import binary_array
from repro.tuning import sqnr_db
from repro.hardware import disassemble, KernelBuilder


def describe(name: str, values: np.ndarray) -> None:
    # The binades the non-zero values span, and the narrowest exponent
    # width whose normal range (1 - bias .. bias) holds them all.
    binades = np.frexp(np.abs(values[values != 0]))[1] - 1
    lo, hi = int(binades.min()), int(binades.max())
    bits = next(
        e for e in range(2, 12)
        if 2 - 2 ** (e - 1) <= lo and hi <= 2 ** (e - 1) - 1
    )
    fits = [f for f in STANDARD_FORMATS if f.emin <= lo and hi <= f.emax]
    print(f"{name}:")
    print(f"  binades 2^{lo} .. 2^{hi} ({6.0206 * (hi - lo):.0f} dB) -> "
          f"needs {bits} exponent bits")
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
    # The builder only emits; the emulated operations compute what the
    # kernel does, each rounded to binary8.
    x8 = quantize_array(np.array(xs), BINARY8)
    y8 = quantize_array(np.array(ys), BINARY8)
    prod = binary_array("mul", np.full(4, 2.0), x8, BINARY8)
    result = binary_array("add", prod, y8, BINARY8)
    print(f"\nresult: {result}")


if __name__ == "__main__":
    main()
