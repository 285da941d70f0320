"""Tests for the transprecision FPU model (paper SIV, Fig. 3).

The tables (latency, lanes, slices, energy) are tested directly.  The
unit's function is tested as the platform runs it: the kernel builder
emits and checks each instruction, the oracle builder
(:class:`tests.oracles.ValueBuilder`) computes its values with the
session backend, and the replay times and prices it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    format_by_name,
    quantize,
    use_backend,
)
from repro.core.ops import binary_array
from repro.hardware import VirtualPlatform
from repro.hardware.fpu import (
    SLICE8,
    SLICE16,
    SLICE32,
    arithmetic_latency,
    cast_energy_pj,
    cast_latency,
    op_energy_pj,
    sequential_latency,
    simd_lanes,
    slice_for,
    supports,
)
from tests.flexfloat import FlexFloat
from tests.oracles import ValueBuilder

lane_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestLatencies:
    def test_pipelined_formats_have_latency_2(self):
        # Paper: binary32 and both 16-bit formats are pipelined with one
        # stage: latency two cycles.
        assert arithmetic_latency(BINARY32) == 2
        assert arithmetic_latency(BINARY16) == 2
        assert arithmetic_latency(BINARY16ALT) == 2

    def test_binary8_single_cycle(self):
        assert arithmetic_latency(BINARY8) == 1

    def test_conversions_single_cycle(self):
        assert cast_latency() == 1

    def test_sequential_ops_multicycle(self):
        assert sequential_latency("div") > 2
        assert sequential_latency("sqrt") > 2

    def test_unknown_sequential_op(self):
        with pytest.raises(ValueError):
            sequential_latency("cbrt")

    def test_unsupported_format_rejected(self):
        from repro.core import FPFormat

        assert not supports(FPFormat(7, 12))
        with pytest.raises(ValueError):
            arithmetic_latency(FPFormat(7, 12))


class TestSimdLanes:
    def test_lane_counts_match_slice_replication(self):
        assert simd_lanes(BINARY32) == 1
        assert simd_lanes(BINARY16) == 2
        assert simd_lanes(BINARY16ALT) == 2
        assert simd_lanes(BINARY8) == 4


class TestSlices:
    def test_slice_assignment(self):
        assert slice_for(BINARY32) is SLICE32
        assert slice_for(BINARY16) is SLICE16
        assert slice_for(BINARY16ALT) is SLICE16
        assert slice_for(BINARY8) is SLICE8

    def test_replication(self):
        assert SLICE32.replicas == 1
        assert SLICE16.replicas == 2
        assert SLICE8.replicas == 4

    def test_widths(self):
        assert (SLICE32.width, SLICE16.width, SLICE8.width) == (32, 16, 8)


class TestEnergyTable:
    def test_narrower_is_cheaper(self):
        for op in ("add", "mul"):
            assert (
                op_energy_pj(BINARY8, op)
                < op_energy_pj(BINARY16, op)
                < op_energy_pj(BINARY32, op)
            )

    def test_binary16alt_mul_cheaper_than_binary16(self):
        # Smaller significand multiplier (8x8 vs 11x11).
        assert op_energy_pj(BINARY16ALT, "mul") < op_energy_pj(BINARY16, "mul")

    def test_vector_pays_per_lane(self):
        scalar = op_energy_pj(BINARY8, "add", lanes=1)
        vector = op_energy_pj(BINARY8, "add", lanes=4)
        assert vector == pytest.approx(4 * scalar)

    def test_fp32_madd_near_paper_scale(self):
        # Paper quotes ~19.4 pJ/FLOP for a comparable unit.
        madd = op_energy_pj(BINARY32, "mul") + op_energy_pj(BINARY32, "add")
        assert 12.0 < madd < 30.0

    def test_cast_cost_by_width(self):
        assert cast_energy_pj(BINARY32, BINARY8) > cast_energy_pj(
            BINARY16, BINARY8
        )
        assert cast_energy_pj(BINARY16, BINARY8) > cast_energy_pj(
            BINARY8, BINARY8
        )

    def test_div_only_binary32(self):
        with pytest.raises(ValueError):
            op_energy_pj(BINARY16, "div")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            op_energy_pj(BINARY32, "hypot")

    def test_fma_cheaper_than_mul_plus_add(self):
        # Extension op: fused multiply-add beats the separate pair.
        for fmt in (BINARY8, BINARY16, BINARY16ALT, BINARY32):
            fused = op_energy_pj(fmt, "fma")
            split = op_energy_pj(fmt, "mul") + op_energy_pj(fmt, "add")
            assert fused < split


def replay(builder):
    """The run report of everything ``builder`` has emitted."""
    return VirtualPlatform().run(builder.program())


def operands(builder, fmt, a, b):
    """Two registers holding ``a`` and ``b``: scalars, or packed lanes
    when given tuples."""
    if isinstance(a, tuple):
        return builder.vconst(a, fmt), builder.vconst(b, fmt)
    return builder.fconst(a, fmt), builder.fconst(b, fmt)


def arith(op, fmt, a, b):
    """One FP instruction on fresh operands: (its value, run report)."""
    builder = ValueBuilder(op)
    reg = builder.fp(op, fmt, *operands(builder, fmt, a, b))
    return builder.values[reg], replay(builder)


def convert(value, src, dst):
    """One cast of a fresh operand: (its value, run report)."""
    builder = ValueBuilder("cvt")
    if isinstance(value, tuple):
        reg = builder.vconst(value, src)
    elif src is None:
        reg = builder.li(value)
    else:
        reg = builder.fconst(value, src)
    out = builder.cast(reg, src, dst)
    return builder.values[out], replay(builder)


def slice_for_name(fmt_name):
    """The name of the slice hosting the format called ``fmt_name``."""
    return slice_for(format_by_name(fmt_name)).name


class TestUnitFunctional:
    def test_scalar_add(self):
        value, report = arith("add", BINARY16, 1.5, 2.25)
        assert value == 3.75
        assert report.fp_instrs == {("binary16", "add", 1): 1}
        # A dependent add waits out the 2-cycle latency: one stall.
        builder = ValueBuilder("chain")
        first = builder.fp("add", BINARY16, *operands(builder, BINARY16,
                                                      1.5, 2.25))
        builder.fp("add", BINARY16, first, first)
        assert replay(builder).timing.stall_cycles == (
            arithmetic_latency(BINARY16) - 1
        )

    def test_result_is_sanitized(self):
        value, _ = arith("add", BINARY8, 1.0, 0.0625)
        assert value == 1.0  # 1.0625 is below binary8's resolution

    def test_simd_4x8(self):
        value, report = arith(
            "mul", BINARY8, (1.0, 2.0, 3.0, 4.0), (2.0, 2.0, 2.0, 2.0)
        )
        assert value == (2.0, 4.0, 6.0, 8.0)
        assert report.fp_instrs == {("binary8", "mul", 4): 1}
        assert report.fp_operations() == {("binary8", "mul", True): 4}
        assert report.timing.stall_cycles == 0  # latency 1

    def test_simd_2x16(self):
        value, report = arith("add", BINARY16ALT, (1.0, 2.0), (0.5, 0.5))
        assert value == (1.5, 2.5)
        assert report.fp_instrs == {("binary16alt", "add", 2): 1}
        assert report.vector_cycles() == 1

    def test_lane_overflow_rejected(self):
        builder = ValueBuilder("wide")
        with pytest.raises(ValueError, match="exceed the 32-bit datapath"):
            builder.vconst((1.0,) * 3, BINARY16)
        arr = builder.alloc("x", [1.0] * 4, BINARY16)
        with pytest.raises(ValueError, match="exceed the 32-bit datapath"):
            builder.load(arr, 0, lanes=4)

    def test_lane_mismatch_rejected(self):
        builder = ValueBuilder("mismatch")
        pair = builder.vconst((1.0, 2.0), BINARY8)
        with pytest.raises(ValueError, match="different lane counts"):
            builder.fp("add", BINARY8, pair, builder.fconst(1.0, BINARY8))

    def test_scalar_result_accessor_rejects_vectors(self):
        # The sequential unit takes one scalar operand: a packed
        # register is refused at emission.
        builder = ValueBuilder("sqrt")
        with pytest.raises(ValueError, match="vector register"):
            builder.fsqrt(BINARY32, builder.vconst((1.0, 4.0), BINARY16))

    def test_div_scalar_binary32_only(self):
        value, report = arith("div", BINARY32, 1.0, 3.0)
        assert value == quantize(1.0 / 3.0, BINARY32)
        assert report.fp_instrs == {("binary32", "div", 1): 1}
        assert report.energy.fp_pj == op_energy_pj(BINARY32, "div")
        for fmt, a, b in ((BINARY16, 1.0, 3.0),
                          (BINARY16, (1.0, 2.0), (1.0, 2.0))):
            with pytest.raises(ValueError, match="only available in binary32"):
                arith("div", fmt, a, b)

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown"):
            arith("xor", BINARY32, 1.0, 1.0)
        for name in ("reference", "fast"):
            with use_backend(name), pytest.raises(KeyError, match="xor"):
                binary_array("xor", np.ones(2), np.ones(2), BINARY32)

    @given(lane_floats, lane_floats)
    @settings(max_examples=200)
    def test_matches_flexfloat_emulation(self, a, b):
        # What the kernel computes equals the numeric forms' lockstep
        # op and the FlexFloat oracle, bit for bit.
        a, b = quantize(a, BINARY16ALT), quantize(b, BINARY16ALT)
        hw, _ = arith("mul", BINARY16ALT, a, b)
        oracle = float(FlexFloat(a, BINARY16ALT) * FlexFloat(b, BINARY16ALT))
        for name in ("reference", "fast"):
            with use_backend(name):
                sw = float(binary_array("mul", np.array([a]), np.array([b]),
                                        BINARY16ALT)[0])
            assert hw == sw == oracle or (
                math.isnan(hw) and math.isnan(sw) and math.isnan(oracle)
            )


class TestUnitConversions:
    def test_ff_conversion(self):
        value, report = convert(1.2001953125, BINARY16, BINARY8)
        assert value == 1.25
        assert report.cast_instrs == {("binary16", "binary8", 1): 1}
        assert report.cast_cycles() == cast_latency()
        assert report.energy.fp_pj == cast_energy_pj(BINARY16, BINARY8)

    def test_b8_to_b16_lossless(self):
        assert convert(57344.0, BINARY8, BINARY16)[0] == 57344.0

    def test_b32_to_b16_saturates(self):
        assert math.isinf(convert(1e6, BINARY32, BINARY16)[0])

    def test_fp_to_int(self):
        value, report = convert(3.7, BINARY32, None)
        assert value == 4.0
        assert report.cast_instrs == {("binary32", "int32", 1): 1}

    def test_int_to_fp(self):
        value, report = convert(3, None, BINARY8)
        assert value == 3.0
        assert report.cast_instrs == {("int32", "binary8", 1): 1}

    def test_both_none_rejected(self):
        with pytest.raises(ValueError, match="at least one FP side"):
            convert(1, None, None)

    def test_vector_conversion(self):
        value, report = convert((1.1, 2.2), BINARY16, BINARY8)
        assert value == (1.0, 2.0)
        assert report.cast_instrs == {("binary16", "binary8", 2): 1}
        assert report.total_casts() == 2


class TestOperandIsolation:
    """Only the slice hosting an instruction's format spends energy,
    once per active lane (operand silencing, paper SIV)."""

    def test_only_matching_slice_is_active(self):
        _, report = arith("add", BINARY8, 1.0, 1.0)
        assert {slice_for_name(f) for f, _, _ in report.fp_instrs} == {
            "slice8"
        }
        assert report.energy.fp_pj == op_energy_pj(BINARY8, "add")
        builder = ValueBuilder("two")
        builder.fp("add", BINARY8, *operands(builder, BINARY8, 1.0, 1.0))
        builder.fp("mul", BINARY32, *operands(builder, BINARY32, 1.0, 1.0))
        report = replay(builder)
        assert {slice_for_name(f) for f, _, _ in report.fp_instrs} == {
            "slice8", "slice32"
        }

    def test_vector_activates_lane_count(self):
        _, report = arith("add", BINARY16, (1.0, 2.0), (1.0, 2.0))
        assert report.fp_operations() == {("binary16", "add", True): 2}
        assert report.energy.fp_pj == pytest.approx(
            op_energy_pj(BINARY16, "add", lanes=2)
        )

    def test_energy_accumulates(self):
        builder = ValueBuilder("twice")
        for _ in range(2):
            builder.fp("add", BINARY8, *operands(builder, BINARY8, 1.0, 1.0))
        assert replay(builder).energy.fp_pj == pytest.approx(
            2 * op_energy_pj(BINARY8, "add")
        )

    def test_reset(self):
        # Every replay starts from an idle unit: running a program again
        # on the same platform reports the same cycles and energy.
        builder = ValueBuilder("again")
        builder.fdiv(BINARY32, *operands(builder, BINARY32, 1.0, 3.0))
        builder.fp("add", BINARY8, *operands(builder, BINARY8, 1.0, 1.0))
        program = builder.program()
        platform = VirtualPlatform()
        first, second = platform.run(program), platform.run(program)
        assert second.cycles == first.cycles
        assert second.energy == first.energy
        assert second.fp_instrs == first.fp_instrs
