"""Quickstart: the FlexFloat emulation library in five minutes.

Covers the scalar/array types, the operation statistics, arbitrary
formats, and the Session/Backend API: one :class:`repro.Session` owns
the arithmetic backend (exact ``reference`` oracle or the bit-identical
``fast`` numpy engine), the statistics scope, the tuning cache and the
virtual platform.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import Session
from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FlexFloat,
    FlexFloatArray,
    FormatMismatchError,
    FPFormat,
    collect,
    vectorizable,
)


def scalar_basics() -> None:
    print("== Scalar FlexFloat values ==")
    # Values are backed by doubles and sanitized to their format.
    x = FlexFloat(3.14159, BINARY16)
    y = FlexFloat(3.14159, BINARY8)
    print(f"pi in binary16  : {float(x)}  (bits 0x{x.bits:04x})")
    print(f"pi in binary8   : {float(y)}  (bits 0x{y.bits:02x})")

    # Arithmetic stays within the format: 1 + 2^-11 rounds back to 1.
    one = FlexFloat(1.0, BINARY16)
    eps = FlexFloat(2.0 ** -11, BINARY16)
    print(f"1 + 2^-11 in binary16 = {float(one + eps)}")

    # Mixing formats is a hard error, exactly like the C++ template.
    a = FlexFloat(1.0, BINARY16)
    b = FlexFloat(1.0, BINARY16ALT)
    try:
        a + b
    except FormatMismatchError as exc:
        print(f"mixing formats raises: {exc}")
    # ...unless you cast explicitly.
    print(f"with explicit cast: {float(a + b.cast(BINARY16))}")


def range_vs_precision() -> None:
    print("\n== Dynamic range vs precision (paper Fig. 1) ==")
    big = 1.0e6
    print(f"{big:g} in binary16    -> {float(FlexFloat(big, BINARY16))}"
          "  (saturates: 5-bit exponent)")
    print(f"{big:g} in binary16alt -> {float(FlexFloat(big, BINARY16ALT))}"
          "  (fits: 8-bit exponent)")
    fine = 1.2345
    print(f"{fine} in binary16    -> {float(FlexFloat(fine, BINARY16))}"
          "  (11 significant bits)")
    print(f"{fine} in binary16alt -> {float(FlexFloat(fine, BINARY16ALT))}"
          "  (8 significant bits)")


def arrays_and_statistics() -> None:
    print("\n== Arrays and operation statistics ==")
    signal = np.sin(np.linspace(0, 2 * np.pi, 16))
    a = FlexFloatArray(signal, BINARY8)
    with collect() as stats:
        with vectorizable():  # tag this region as SIMD-friendly
            energy = (a * a).sum()
    print(f"sum of squares in binary8: {float(energy):.3f} "
          f"(exact: {np.sum(signal * signal):.3f})")
    print(f"operations recorded: {stats.total_arith_ops()} "
          f"({stats.vector_fraction():.0%} in vectorizable regions)")


def custom_formats() -> None:
    print("\n== Arbitrary formats: flexfloat<e, m> ==")
    for e, m in [(4, 3), (6, 9), (7, 12)]:
        fmt = FPFormat(e, m)
        approx = FlexFloat(2.718281828, fmt)
        print(f"e={e} m={m:2d}: e^1 = {float(approx):.6f}, "
              f"max = {fmt.max_value:.3g}, eps = {fmt.machine_epsilon:.3g}")


def sessions_and_backends() -> None:
    print("\n== Sessions and backends ==")
    # A Session owns the execution state: arithmetic backend, statistics
    # scope, tuning cache, virtual platform.  The "fast" backend uses
    # precomputed per-format constants and fused quantize-on-write
    # kernels -- bit-identical to the exact reference pipeline, several
    # times faster on the array hot path.
    signal = np.sin(np.linspace(0, 2 * np.pi, 256))
    results = {}
    for backend in ("reference", "fast"):
        session = Session(backend=backend)
        with session, session.collect() as stats:
            a = FlexFloatArray(signal, BINARY16ALT)
            results[backend] = float((a * a).sum())
        print(f"{backend:10s} backend: sum of squares = "
              f"{results[backend]:.6f} ({stats.total_arith_ops()} ops)")
    print(f"bit-identical across backends: "
          f"{results['reference'] == results['fast']}")
    # Each session's statistics are isolated -- nothing leaks through
    # module globals, so concurrent experiments cannot contaminate
    # each other's operation counts.


if __name__ == "__main__":
    scalar_basics()
    range_vs_precision()
    arrays_and_statistics()
    custom_formats()
    sessions_and_backends()
