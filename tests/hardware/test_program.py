"""Tests for the kernel builder: emitted streams, and the values the
value oracle (:class:`tests.oracles.ValueBuilder`) computes on top."""

import math

import numpy as np
import pytest

from repro.core import BINARY8, BINARY16, BINARY32, quantize
from repro.hardware import KernelBuilder, Kind, VirtualPlatform
from tests.oracles import ValueBuilder


class TestDataAllocation:
    def test_alloc_sanitizes_payload(self):
        b = ValueBuilder("t")
        b.alloc("x", [1.1, 2.2], BINARY8)
        assert b.program().output("x").tolist() == [1.0, 2.0]

    def test_alloc_keeps_only_the_length(self):
        b = KernelBuilder("t")
        arr = b.alloc("x", np.ones((3, 4)), BINARY8)
        assert (arr.name, arr.fmt, len(arr)) == ("x", BINARY8, 12)
        assert not hasattr(arr, "data")

    def test_alloc_int_array(self):
        b = KernelBuilder("t")
        arr = b.alloc("labels", [1, 2, 3], None)
        assert arr.element_bytes == 4

    def test_duplicate_name_rejected(self):
        b = KernelBuilder("t")
        b.alloc("x", [1.0], BINARY8)
        with pytest.raises(ValueError, match="already"):
            b.alloc("x", [1.0], BINARY8)

    def test_zeros(self):
        b = ValueBuilder("t")
        arr = b.zeros("out", 4, BINARY16)
        assert len(arr) == 4
        assert b.program().output("out").tolist() == [0.0] * 4

    def test_element_bytes(self):
        b = KernelBuilder("t")
        assert b.alloc("a", [0.0], BINARY8).element_bytes == 1
        assert b.alloc("b", [0.0], BINARY16).element_bytes == 2
        assert b.alloc("c", [0.0], BINARY32).element_bytes == 4


class TestScalarKernel:
    def test_axpy_computes_and_counts(self):
        b = ValueBuilder("axpy")
        x = b.alloc("x", [1.0, 2.0, 3.0], BINARY32)
        y = b.alloc("y", [10.0, 20.0, 30.0], BINARY32)
        out = b.zeros("out", 3, BINARY32)
        a = b.fconst(2.0, BINARY32)
        for i in b.loop(3):
            xi = b.load(x, i)
            yi = b.load(y, i)
            prod = b.fp("mul", BINARY32, a, xi)
            s = b.fp("add", BINARY32, prod, yi)
            b.store(out, i, s)
        program = b.program()
        assert program.output("out").tolist() == [12.0, 24.0, 36.0]

        report = VirtualPlatform().run(program)
        assert report.fp_instrs[("binary32", "mul", 1)] == 3
        assert report.fp_instrs[("binary32", "add", 1)] == 3
        assert report.memory.loads == 6
        assert report.memory.stores == 3

    def test_values_are_quantized_like_emulation(self):
        b = ValueBuilder("q")
        x = b.fconst(1.2, BINARY8)
        y = b.fconst(1.3, BINARY8)
        z = b.fp("add", BINARY8, x, y)
        assert b.values[z] == quantize(
            quantize(1.2, BINARY8) + quantize(1.3, BINARY8), BINARY8
        )

    def test_store_quantizes_to_array_format(self):
        b = ValueBuilder("q")
        out = b.zeros("out", 1, BINARY8)
        v = b.fconst(1.9, BINARY32)  # exact in binary32
        # Cast then store: the store target enforces its own format.
        c = b.cast(v, BINARY32, BINARY8)
        b.store(out, 0, c)
        assert b.program().output("out")[0] == 2.0

    def test_fdiv_fsqrt(self):
        b = ValueBuilder("seq")
        x = b.fconst(2.0, BINARY32)
        y = b.fconst(3.0, BINARY32)
        d = b.fdiv(BINARY32, x, y)
        s = b.fsqrt(BINARY32, x)
        assert b.values[d] == quantize(2.0 / 3.0, BINARY32)
        assert b.values[s] == quantize(2.0 ** 0.5, BINARY32)
        # Division by a signed zero and NaN operands follow IEEE 754,
        # as np.divide does.
        for num, den, expected in [
            (1.0, -0.0, -math.inf),
            (-2.0, -0.0, math.inf),
            (math.nan, 0.0, math.nan),
        ]:
            q = b.fdiv(
                BINARY32, b.fconst(num, BINARY32), b.fconst(den, BINARY32)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                assert np.array_equal(np.divide(num, den), expected,
                                      equal_nan=True)
            assert np.array_equal(b.values[q], expected, equal_nan=True), (
                num, den, b.values[q],
            )
        # The root of -0 is -0 (IEEE 754, np.sqrt, mathfn.sqrt); the
        # root of a negative number is NaN.
        z = b.values[b.fsqrt(BINARY32, b.fconst(-0.0, BINARY32))]
        assert z == 0.0 and math.copysign(1.0, z) == -1.0
        assert math.isnan(
            b.values[b.fsqrt(BINARY32, b.fconst(-1.0, BINARY32))]
        )

    def test_fp_to_int_cast_converts_like_fcvt_w(self):
        """RISC-V ``fcvt.w``: ties to even, saturation, NaN -> max."""
        int_max, int_min = 2**31 - 1, -(2**31)
        cases = [
            (2.5, 2.0), (3.5, 4.0), (-2.5, -2.0), (-0.25, 0.0),
            (3e9, int_max), (-3e9, int_min), (math.inf, int_max),
            (-math.inf, int_min), (math.nan, int_max),
        ]
        b = ValueBuilder("cvt")
        for value, expected in cases:
            x = b.fconst(value, BINARY32)
            got = b.values[b.cast(x, BINARY32, None)]
            assert got == expected, (value, got)
            # No -0: an integer has no sign of zero.
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_fcmp(self):
        b = ValueBuilder("cmp")
        x = b.fconst(1.0, BINARY32)
        y = b.fconst(2.0, BINARY32)
        c = b.fp("cmp", BINARY32, x, y)
        assert b.values[c] == 1.0


class TestVectorKernel:
    def test_vector_add_4x8(self):
        b = ValueBuilder("v")
        x = b.alloc("x", [1.0, 2.0, 3.0, 4.0], BINARY8)
        out = b.zeros("out", 4, BINARY8)
        vx = b.load(x, 0, lanes=4)
        v2 = b.vconst([2.0] * 4, BINARY8)
        vs = b.fp("add", BINARY8, vx, v2)
        b.store(out, 0, vs)
        program = b.program()
        assert program.output("out").tolist() == [3.0, 4.0, 5.0, 6.0]

        report = VirtualPlatform().run(program)
        # One vector load + one vector store = 2 accesses, both vector.
        assert report.memory.total == 2
        assert report.memory.vector_accesses == 2
        # 4 elementwise operations from a single instruction.
        assert report.total_fp_operations() == 4

    def test_vector_width_limited_by_datapath(self):
        b = KernelBuilder("v")
        x = b.alloc("x", [1.0] * 4, BINARY16)
        with pytest.raises(ValueError, match="32-bit datapath"):
            b.load(x, 0, lanes=4)

    def test_vector_int_array_rejected(self):
        b = KernelBuilder("v")
        arr = b.alloc("labels", [1, 2], None)
        with pytest.raises(ValueError, match="scalar"):
            b.load(arr, 0, lanes=2)

    def test_scalar_op_on_vector_register_rejected(self):
        b = KernelBuilder("v")
        x = b.alloc("x", [1.0, 2.0], BINARY16)
        vx = b.load(x, 0, lanes=2)
        s = b.fconst(1.0, BINARY16)
        with pytest.raises(ValueError, match=r"lane counts \(1, 2\)"):
            b.fp("add", BINARY16, s, vx)

    def test_vector_op_on_scalar_register_rejected(self):
        b = KernelBuilder("v")
        x = b.alloc("x", [1.0, 2.0], BINARY16)
        vx = b.load(x, 0, lanes=2)
        s = b.fconst(1.0, BINARY16)
        with pytest.raises(ValueError, match=r"lane counts \(2, 1\)"):
            b.fp("add", BINARY16, vx, s)
        # Inside a sweep too.
        for _ in b.sweep(2):
            with pytest.raises(ValueError, match="different lane counts"):
                b.fp("mul", BINARY16, vx, b.load(x, 0))

    def test_fma_lane_mismatch_rejected(self):
        b = KernelBuilder("v")
        x = b.alloc("x", [1.0] * 4, BINARY8)
        v4, v2 = b.load(x, 0, lanes=4), b.load(x, 0, lanes=2)
        with pytest.raises(ValueError, match=r"fma .*\(4, 4, 2\)"):
            b.fma(BINARY8, v4, v4, v2)

    def test_vector_sqrt_rejected(self):
        b = KernelBuilder("v")
        x = b.alloc("x", [1.0] * 2, BINARY16)
        with pytest.raises(ValueError, match="vector register"):
            b.fsqrt(BINARY16, b.load(x, 0, lanes=2))

    def test_lanes_follow_the_register(self):
        """``fp``, ``cast``, ``fma`` and ``store`` take their lane count
        from their register operands."""
        b = KernelBuilder("v")
        x = b.alloc("x", [1.0] * 4, BINARY8)
        out = b.zeros("out", 4, BINARY16)
        v = b.load(x, 0, lanes=2)
        s = b.fp("add", BINARY8, v, v)
        f = b.fma(BINARY8, s, s, v)
        c = b.cast(f, BINARY8, BINARY16)
        b.store(out, 2, c)
        rows = list(b.program().instrs)
        assert [r.lanes for r in rows] == [2, 2, 2, 2, 2]
        assert (s.lanes, f.lanes, c.lanes) == (2, 2, 2)
        assert rows[-1].kind == Kind.STORE and rows[-1].width == 4

    def test_out_of_bounds_load(self):
        b = KernelBuilder("v")
        x = b.alloc("x", [1.0, 2.0], BINARY8)
        with pytest.raises(IndexError):
            b.load(x, 1, lanes=4)

    def test_vector_cast(self):
        b = ValueBuilder("v")
        x = b.alloc("x", [1.5, 2.5], BINARY16)
        vx = b.load(x, 0, lanes=2)
        vc = b.cast(vx, BINARY16, BINARY8)
        assert vc.lanes == 2
        assert b.values[vc] == (1.5, 2.5)


class TestLoops:
    def test_hw_loop_emits_setup_only(self):
        b = KernelBuilder("hw")
        for _ in b.loop(5):
            b.li(0)
        program = b.program()
        kinds = [i.kind for i in program.instrs]
        assert kinds.count(Kind.LOOP_SETUP) == 2
        assert kinds.count(Kind.BRANCH) == 0
        assert kinds.count(Kind.LI) == 5

    def test_soft_loop_emits_branches(self):
        b = KernelBuilder("soft")
        for _ in b.loop(3, soft=True):
            b.li(0)
        program = b.program()
        kinds = [i.kind for i in program.instrs]
        assert kinds.count(Kind.BRANCH) == 3
        # Last branch is not taken (fall-through out of the loop).
        branches = [i for i in program.instrs if i.kind == Kind.BRANCH]
        assert [br.taken for br in branches] == [True, True, False]

    def test_deeply_nested_loops_fall_back_to_soft(self):
        b = KernelBuilder("nest")
        for _ in b.loop(2):
            for _ in b.loop(2):
                for _ in b.loop(2):  # third level: no HW loop left
                    b.li(0)
        program = b.program()
        kinds = [i.kind for i in program.instrs]
        assert kinds.count(Kind.BRANCH) > 0

    def test_zero_iteration_loop_emits_nothing(self):
        b = KernelBuilder("empty")
        for _ in b.loop(0):
            b.li(0)
        assert b.instruction_count == 0


class TestProgramOutput:
    def test_output_returns_numpy(self):
        b = ValueBuilder("o")
        b.alloc("x", [1.0, 2.0], BINARY16)
        program = b.program()
        out = program.output("x")
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [1.0, 2.0]

    def test_len(self):
        b = KernelBuilder("o")
        b.li(1)
        b.li(2)
        assert len(b.program()) == 2
