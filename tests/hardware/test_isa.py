"""Tests for the mini-ISA definitions and the timing model's invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BINARY8, BINARY16, BINARY32
from repro.hardware import (
    BRANCH_TAKEN_PENALTY,
    LOAD_USE_LATENCY,
    Instr,
    Kind,
    lower_instrs,
    simulate_timing_columns,
)


def replay(instrs):
    """Time a stream on the shipped (columnar) replay."""
    return simulate_timing_columns(lower_instrs(instrs))


class TestInstr:
    def test_defaults(self):
        instr = Instr(Kind.NOP)
        assert instr.dst is None
        assert instr.srcs == ()
        assert instr.lanes == 1
        assert not instr.taken

    def test_repr_contains_essentials(self):
        instr = Instr(Kind.FP, dst=3, srcs=(1, 2), op="mul",
                      fmt=BINARY8, lanes=4)
        text = repr(instr)
        assert "fp" in text and "mul" in text
        assert "x4" in text and "r3" in text

    def test_constants_positive(self):
        assert BRANCH_TAKEN_PENALTY >= 1
        assert LOAD_USE_LATENCY >= 1


def random_streams():
    """Generate small well-formed instruction streams."""
    def build(choices):
        instrs = []
        next_reg = 0
        live = [0]
        # Seed register so srcs always reference written registers.
        instrs.append(Instr(Kind.LI, dst=0))
        next_reg = 1
        for kind_id, fmt_id in choices:
            fmt = (BINARY8, BINARY16, BINARY32)[fmt_id]
            src = live[kind_id % len(live)]
            if kind_id % 4 == 0:
                instrs.append(Instr(Kind.ALU, dst=next_reg, srcs=(src,)))
            elif kind_id % 4 == 1:
                instrs.append(
                    Instr(Kind.LOAD, dst=next_reg, fmt=fmt, width=4)
                )
            elif kind_id % 4 == 2:
                instrs.append(
                    Instr(Kind.FP, dst=next_reg, srcs=(src, src),
                          op="add", fmt=fmt)
                )
            else:
                instrs.append(Instr(Kind.BRANCH, srcs=(src,),
                                    taken=kind_id % 8 == 3))
                continue
            live.append(next_reg)
            next_reg += 1
        return instrs

    return st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 2)),
        min_size=0,
        max_size=40,
    ).map(build)


class TestTimingInvariants:
    @given(random_streams())
    @settings(max_examples=150)
    def test_cycles_at_least_instructions(self, instrs):
        timing = replay(instrs)
        assert timing.cycles >= timing.instructions

    @given(random_streams())
    @settings(max_examples=150)
    def test_class_cycles_account_for_everything(self, instrs):
        timing = replay(instrs)
        total_attributed = sum(timing.cycles_by_class.values())
        taken = sum(
            1 for i in instrs if i.kind == Kind.BRANCH and i.taken
        )
        assert total_attributed == (
            timing.instructions
            + timing.stall_cycles
            + taken * BRANCH_TAKEN_PENALTY
        )

    @given(random_streams())
    @settings(max_examples=100)
    def test_prefix_monotonicity(self, instrs):
        # Adding instructions never reduces total cycles.
        if len(instrs) < 2:
            return
        half = replay(instrs[: len(instrs) // 2])
        full = replay(instrs)
        assert full.cycles >= half.cycles

    @given(random_streams())
    @settings(max_examples=100)
    def test_deterministic(self, instrs):
        a = replay(instrs)
        b = replay(instrs)
        assert a.cycles == b.cycles
        assert a.stall_cycles == b.stall_cycles
