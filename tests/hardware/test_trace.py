"""Tests for program disassembly and instruction-mix summaries."""

from repro.core import BINARY8, BINARY16, BINARY32
from repro.hardware import KernelBuilder, Kind
from repro.hardware.trace import disassemble, instruction_mix


def tiny_program():
    b = KernelBuilder("tiny")
    x = b.alloc("x", [1.0, 2.0, 3.0, 4.0], BINARY8)
    out = b.zeros("out", 4, BINARY8)
    vx = b.load(x, 0, lanes=4)
    v2 = b.vconst([2.0] * 4, BINARY8)
    prod = b.fp("mul", BINARY8, vx, v2)
    b.store(out, 0, prod)
    c = b.fconst(1.5, BINARY32)
    c8 = b.cast(c, BINARY32, BINARY8)
    b.store(out, 1, c8)
    b.branch(True, c8)
    return b.program()


class TestDisassemble:
    def test_contains_mnemonics(self):
        text = disassemble(tiny_program())
        assert "vfmul.b" in text
        assert "fcvt" in text
        assert "bne" in text
        assert "x4" in text  # SIMD lane annotation

    def test_limit_truncates(self):
        text = disassemble(tiny_program(), limit=2)
        assert "more" in text
        assert len(text.splitlines()) == 3

    def test_every_instruction_rendered(self):
        program = tiny_program()
        text = disassemble(program)
        assert len(text.splitlines()) == len(program.instrs)

    def test_scalar_memory_mnemonics(self):
        b = KernelBuilder("mem")
        x = b.alloc("x", [1.0], BINARY16)
        v = b.load(x, 0)
        b.store(x, 0, v)
        text = disassemble(b.program())
        assert "flwh" in text or "flh" in text.replace("flwh", "")
        assert "fswh" in text or "fsh" in text.replace("fswh", "")


class TestInstructionMix:
    def test_counts(self):
        mix = instruction_mix(tiny_program())
        assert mix.total == len(tiny_program().instrs)
        assert mix.by_kind["FP"] == 1
        assert mix.fp_by_format["binary8"] == 1
        assert mix.cast_instrs == 1
        assert mix.taken_branches == 1
        assert mix.vector_instrs >= 3  # load, const, mul, store

    def test_fraction(self):
        mix = instruction_mix(tiny_program())
        assert 0 < mix.fraction(Kind.FP) < 1

    def test_empty_program(self):
        mix = instruction_mix(KernelBuilder("e").program())
        assert mix.total == 0
        assert mix.fraction(Kind.FP) == 0.0
