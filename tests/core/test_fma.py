"""Tests for the fused multiply-add extension: the library rounding, the
kernel builder, and the unit as the replay times and prices it."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FPFormat,
    quantize,
)
from repro.hardware import VirtualPlatform
from repro.hardware.fpu import arithmetic_latency, op_energy_pj, simd_lanes
from tests.flexfloat import FMA_MAX_MAN_BITS, FlexFloat, fused_multiply_add
from tests.oracles import ValueBuilder

operands = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestLibraryFma:
    def test_single_rounding_beats_two_roundings(self):
        # Choose operands where mul-then-add double-rounds: in binary16,
        # the product needs the sticky information the separate multiply
        # throws away.
        a = FlexFloat(1.0 + 2.0 ** -10, BINARY16)
        b = FlexFloat(1.0 + 2.0 ** -10, BINARY16)
        c = FlexFloat(-1.0, BINARY16)
        fused = fused_multiply_add(float(a), float(b), float(c), BINARY16)
        split = a * b + c
        exact = float(a) * float(b) + float(c)
        assert abs(fused - exact) <= abs(float(split) - exact)

    @given(operands, operands, operands)
    @settings(max_examples=300)
    def test_fma_equals_exactly_rounded_expression(self, x, y, z):
        a = FlexFloat(x, BINARY16)
        b = FlexFloat(y, BINARY16)
        c = FlexFloat(z, BINARY16)
        got = fused_multiply_add(float(a), float(b), float(c), BINARY16)
        want = quantize(float(a) * float(b) + float(c), BINARY16)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_counted_as_one_operation(self):
        # One fused instruction, one FP operation: the split form the
        # fma replaces counts two of each.
        builder = ValueBuilder("fma")
        regs = [builder.fconst(v, BINARY8) for v in (1.0, 2.0, 3.0)]
        builder.fma(BINARY8, *regs)
        report = VirtualPlatform().run(builder.program())
        assert report.fp_instrs == {("binary8", "fma", 1): 1}
        assert report.total_fp_operations() == 1


def unit_run(fmt, a, b, c):
    """One fma on fresh operands, scalars or packed lanes when given
    tuples: (its value, run report)."""
    builder = ValueBuilder("fma")
    if isinstance(a, tuple):
        regs = [builder.vconst(v, fmt) for v in (a, b, c)]
    else:
        regs = [builder.fconst(v, fmt) for v in (a, b, c)]
    reg = builder.fma(fmt, *regs)
    return builder.values[reg], VirtualPlatform().run(builder.program())


class TestUnitFma:
    def test_scalar(self):
        value, report = unit_run(BINARY8, 2.0, 3.0, 1.0)
        assert value == 7.0
        assert report.fp_instrs == {("binary8", "fma", 1): 1}
        assert arithmetic_latency(BINARY8) == 1
        assert report.timing.stall_cycles == 0

    def test_simd(self):
        value, report = unit_run(
            BINARY8, (1.0, 2.0, 3.0, 4.0), (2.0,) * 4, (1.0,) * 4
        )
        # 4*2+1 = 9 ties between 8 and 10 in binary8 and rounds to even.
        assert value == (3.0, 5.0, 7.0, 8.0)
        assert report.fp_operations() == {("binary8", "fma", True): 4}

    def test_lane_mismatch(self):
        builder = ValueBuilder("fma")
        pair = builder.vconst((1.0, 2.0), BINARY8)
        with pytest.raises(ValueError, match="different lane counts"):
            builder.fma(BINARY8, pair, pair, builder.fconst(1.0, BINARY8))

    def test_energy_accounted(self):
        _, report = unit_run(BINARY32, 1.0, 1.0, 1.0)
        assert report.energy.fp_pj == op_energy_pj(BINARY32, "fma") > 0


class TestBuilderFma:
    def test_functional_and_counted(self):
        b = ValueBuilder("fma")
        out = b.zeros("out", 1, BINARY16)
        x = b.fconst(2.0, BINARY16)
        y = b.fconst(3.0, BINARY16)
        z = b.fconst(0.5, BINARY16)
        r = b.fma(BINARY16, x, y, z)
        b.store(out, 0, r)
        program = b.program()
        assert program.output("out")[0] == 6.5

        report = VirtualPlatform().run(program)
        assert report.fp_instrs[("binary16", "fma", 1)] == 1

    def test_fma_kernel_cheaper_than_mul_add(self):
        def build(use_fma):
            b = ValueBuilder("dotp")
            x = b.alloc("x", [1.0] * 64, BINARY32)
            w = b.alloc("w", [0.5] * 64, BINARY32)
            out = b.zeros("out", 1, BINARY32)
            acc = b.fconst(0.0, BINARY32)
            for i in b.loop(64):
                xi = b.load(x, i)
                wi = b.load(w, i)
                if use_fma:
                    acc = b.fma(BINARY32, xi, wi, acc)
                else:
                    prod = b.fp("mul", BINARY32, xi, wi)
                    acc = b.fp("add", BINARY32, acc, prod)
            b.store(out, 0, acc)
            return b.program()

        platform = VirtualPlatform()
        split = platform.run(build(False))
        fused = platform.run(build(True))
        assert fused.instructions < split.instructions
        assert fused.energy_pj < split.energy_pj
        assert build(True).output("out")[0] == 32.0


# ----------------------------------------------------------------------
# One rounding, checked against exact rational arithmetic
# ----------------------------------------------------------------------
def round_exact(value: Fraction, fmt: FPFormat) -> float:
    """``value`` rounded once, to nearest even, into ``fmt``."""
    if value == 0:
        return 0.0
    magnitude = abs(value)
    exponent = magnitude.numerator.bit_length()
    exponent -= magnitude.denominator.bit_length()
    if Fraction(2) ** exponent > magnitude:
        exponent -= 1
    quantum = Fraction(2) ** (max(exponent, fmt.emin) - fmt.man_bits)
    rounded = round(value / quantum) * quantum  # Fraction rounds to even
    if abs(rounded) > fmt.max_value:
        return math.copysign(math.inf, value)
    return float(rounded)


def fma_cases(fmt: FPFormat, seed: int, count: int):
    """Exact ties a binary64 sum blurs, then random triples.

    ``1.5 * (1 -/+ 2**-m)`` lands exactly on a midpoint of ``fmt``, and
    an addend far below binary64's resolution decides which way the
    single rounding must go.
    """
    rng = random.Random(seed)
    ulp = 2.0 ** -fmt.man_bits
    for k in range(-6, 7):
        for b in (1 - ulp, 1 + ulp):
            for sign_a in (1, -1):
                for shift in (55, 60, 70):
                    for sign_c in (1, -1):
                        yield (
                            sign_a * 1.5 * 2.0 ** k,
                            b,
                            sign_c * 2.0 ** (k - shift),
                        )
    for _ in range(count):
        a, b, c = (
            quantize(
                rng.choice((1, -1))
                * rng.uniform(1, 2)
                * 2.0 ** rng.randint(-20, 20),
                fmt,
            )
            for _ in range(3)
        )
        yield a, b, c


def builder_fma(fmt, a, b, c):
    """The kernel builder's fma, valued by the oracle builder."""
    builder = ValueBuilder("fma")
    reg = builder.fma(
        fmt, builder.fconst(a, fmt), builder.fconst(b, fmt),
        builder.fconst(c, fmt),
    )
    return builder.values[reg]


def library_fma(fmt, a, b, c):
    return fused_multiply_add(a, b, c, fmt)


def unit_fma(fmt, a, b, c):
    """The fma on every lane of the format's slice (one packed
    instruction; scalar for binary32), valued by the oracle builder."""
    lanes = simd_lanes(fmt)
    if lanes == 1:
        return unit_run(fmt, a, b, c)[0]
    values, _ = unit_run(fmt, (a,) * lanes, (b,) * lanes, (c,) * lanes)
    assert len(set(values)) == 1
    return values[0]


ENTRY_POINTS = {
    "library": library_fma,
    "builder": builder_fma,
    "unit": unit_fma,
}


class TestSingleRounding:
    def test_binary64_sum_would_double_round(self):
        a, b, c = 1.5, 1 - 2.0 ** -23, 2.0 ** -60
        assert quantize(a * b + c, BINARY32) == 1.5 - 2.0 ** -22
        assert round_exact(
            Fraction(a) * Fraction(b) + Fraction(c), BINARY32
        ) == 1.5 - 2.0 ** -23

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_example_rounds_once(self, entry):
        got = ENTRY_POINTS[entry](BINARY32, 1.5, 1 - 2.0 ** -23, 2.0 ** -60)
        assert got == 1.5 - 2.0 ** -23

    @pytest.mark.parametrize(
        "fmt",
        [BINARY32, BINARY16ALT, FPFormat(8, FMA_MAX_MAN_BITS)],
        ids=lambda fmt: fmt.name or repr(fmt),
    )
    @pytest.mark.parametrize("entry", ["library", "builder"])
    def test_matches_exact_rounding(self, fmt, entry):
        fma = ENTRY_POINTS[entry]
        misses = [
            (a, b, c)
            for a, b, c in fma_cases(fmt, seed=fmt.man_bits, count=1500)
            if fma(fmt, a, b, c) != round_exact(
                Fraction(a) * Fraction(b) + Fraction(c), fmt
            )
        ]
        assert misses == []

    def test_unit_matches_exact_rounding(self):
        for a, b, c in fma_cases(BINARY16ALT, seed=5, count=500):
            assert unit_fma(BINARY16ALT, a, b, c) == round_exact(
                Fraction(a) * Fraction(b) + Fraction(c), BINARY16ALT
            )

    @pytest.mark.parametrize("entry", ["library", "builder"])
    def test_wider_mantissas_rejected(self, entry):
        # Two 27-bit significands need up to 54 bits: binary64 would
        # round the product itself before the sum is ever formed.
        fmt = FPFormat(8, FMA_MAX_MAN_BITS + 1)
        x = 2 - 2.0 ** -fmt.man_bits
        assert Fraction(x) * Fraction(x) != Fraction(x * x)
        with pytest.raises(ValueError, match="mantissa bits"):
            ENTRY_POINTS[entry](fmt, x, x, 1.0)
