"""Quickstart: the FlexFloat emulation library in five minutes.

Values are float64 numpy arrays kept sanitized to a format:
``quantize_array`` rounds them and ``encode`` packs a value into its
format's bit pattern.  A numeric form runs several candidate formats at
once, one per row of a leading axis (``FormatRows``), through a
``Lockstep``: one call per operation for every row, with the operation
statistics recorded in each row's own format.  One :class:`repro.Session`
owns the arithmetic backend (exact ``reference`` oracle or the
bit-identical ``fast`` numpy engine), the statistics scope, the tuning
cache and the virtual platform.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import Session
from repro.apps import make_app
from repro.apps.base import Lockstep
from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FormatRows,
    FPFormat,
    encode,
    quantize_array,
)
from repro.tuning import uniform_binding

#: The formats of the transprecision FPU, one lockstep row each.
FORMATS = (BINARY8, BINARY16ALT, BINARY16, BINARY32)


def values_and_bits() -> None:
    print("== Values sanitized to a format ==")
    # Values are backed by doubles and rounded to their format.
    for fmt in (BINARY16, BINARY8):
        pi = quantize_array(np.array([3.14159]), fmt)[0]
        width = (fmt.bits + 3) // 4
        print(f"pi in {fmt.name:9s}: {pi}  "
              f"(bits 0x{encode(pi, fmt):0{width}x})")


def range_vs_precision() -> None:
    print("\n== Dynamic range vs precision (paper Fig. 1) ==")
    # FormatRows rounds row r of the leading axis to its own format.
    rows = FormatRows((BINARY16, BINARY16ALT))
    values = np.array([1.0e6, 1.2345])
    big, fine = quantize_array(np.tile(values, (len(rows), 1)), rows).T
    print(f"1e+06 in binary16    -> {big[0]}  (saturates: 5-bit exponent)")
    print(f"1e+06 in binary16alt -> {big[1]}  (fits: 8-bit exponent)")
    print(f"1.2345 in binary16    -> {fine[0]}  (11 significant bits)")
    print(f"1.2345 in binary16alt -> {fine[1]}  (8 significant bits)")


def sum_of_squares(backend: str):
    """A sine's sum of squares in every FORMATS row, on ``backend``."""
    signal = np.sin(np.linspace(0, 2 * np.pi, 16))
    rows = FormatRows(FORMATS)
    # A Lockstep carries one app's bindings, one per row: here conv's,
    # with every variable in the row's format.
    app = make_app("conv", "tiny")
    bindings = [uniform_binding(app, fmt) for fmt in FORMATS]
    session = Session(backend=backend)
    with session, session.collect() as stats:
        lock = Lockstep(app, bindings)
        vector = lock.packs(rows)  # SIMD-friendly where the format packs
        x = lock.per_row(signal, rows)
        squares = lock.op("mul", x, x, rows, vector)
        total = lock.sum(squares, rows, vector)
    return signal, total, stats


def lockstep_statistics() -> None:
    print("\n== Four formats at once, with operation statistics ==")
    signal, total, stats = sum_of_squares("reference")
    for fmt, value in zip(FORMATS, total):
        print(f"sum of squares in {fmt.name:11s}: {value:.3f}")
    print(f"exact: {np.sum(signal * signal):.3f}")
    print(f"operations recorded: {stats.total_arith_ops()} "
          f"({stats.vector_fraction():.0%} in vectorizable regions)")


def custom_formats() -> None:
    print("\n== Arbitrary formats: flexfloat<e, m> ==")
    for e, m in [(4, 3), (6, 9), (7, 12)]:
        fmt = FPFormat(e, m)
        approx = quantize_array(np.array([2.718281828]), fmt)[0]
        print(f"e={e} m={m:2d}: e^1 = {approx:.6f}, "
              f"max = {fmt.max_value:.3g}, eps = {fmt.machine_epsilon:.3g}")


def sessions_and_backends() -> None:
    print("\n== Sessions and backends ==")
    # The "fast" backend uses precomputed per-format constants and fused
    # quantize-on-write kernels -- bit-identical to the exact reference
    # pipeline, several times faster.  Each session's statistics are
    # isolated: nothing leaks through module globals.
    totals = {}
    for backend in ("reference", "fast"):
        _, totals[backend], stats = sum_of_squares(backend)
        print(f"{backend:10s} backend: {totals[backend]} "
              f"({stats.total_arith_ops()} ops)")
    same = totals["reference"].tobytes() == totals["fast"].tobytes()
    print(f"bit-identical across backends: {same}")


if __name__ == "__main__":
    values_and_bits()
    range_vs_precision()
    lockstep_statistics()
    custom_formats()
    sessions_and_backends()
