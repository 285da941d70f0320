"""Hand-checked cycle counts for the pipeline timing model."""

import pytest

from repro.core import BINARY8, BINARY16, BINARY32
from repro.hardware import Instr, Kind, lower_instrs, simulate_timing_columns


def replay(instrs):
    """Time a stream on the shipped (columnar) replay."""
    return simulate_timing_columns(lower_instrs(instrs))


def alu(dst, *srcs):
    return Instr(Kind.ALU, dst=dst, srcs=srcs)


def li(dst):
    return Instr(Kind.LI, dst=dst)


def load(dst, fmt=BINARY32, lanes=1):
    return Instr(Kind.LOAD, dst=dst, fmt=fmt, lanes=lanes, width=4)


def fp(dst, srcs, op="add", fmt=BINARY32, lanes=1):
    return Instr(Kind.FP, dst=dst, srcs=srcs, op=op, fmt=fmt, lanes=lanes)


class TestBasicIssue:
    def test_empty_program(self):
        t = replay([])
        assert t.cycles == 0
        assert t.instructions == 0

    def test_independent_instructions_issue_every_cycle(self):
        t = replay([li(0), li(1), li(2)])
        assert t.cycles == 3
        assert t.stall_cycles == 0

    def test_dependent_alu_forwards_without_stall(self):
        t = replay([li(0), alu(1, 0), alu(2, 1)])
        assert t.cycles == 3
        assert t.stall_cycles == 0


class TestFPLatency:
    def test_dependent_fp32_chain_stalls_one_cycle_each(self):
        # Latency 2, throughput 1: a dependent consumer waits 1 cycle.
        t = replay(
            [li(0), li(1), fp(2, (0, 1)), fp(3, (2, 1))]
        )
        # cycles: li@0, li@1, fp@2 (ready@4), fp@4 -> ends 5... total
        assert t.stall_cycles == 1
        assert t.cycles == 6

    def test_independent_fp32_ops_fully_pipelined(self):
        t = replay(
            [li(0), li(1), fp(2, (0, 1)), fp(3, (0, 1)), fp(4, (0, 1))]
        )
        assert t.stall_cycles == 0

    def test_binary8_chain_never_stalls(self):
        t = replay(
            [
                li(0),
                li(1),
                fp(2, (0, 1), fmt=BINARY8),
                fp(3, (2, 1), fmt=BINARY8),
                fp(4, (3, 1), fmt=BINARY8),
            ]
        )
        assert t.stall_cycles == 0

    def test_binary16_same_latency_as_binary32(self):
        # Paper SV-A: binary16 latency equals binary32's.
        t16 = replay(
            [li(0), fp(1, (0, 0), fmt=BINARY16), fp(2, (1, 1), fmt=BINARY16)]
        )
        t32 = replay(
            [li(0), fp(1, (0, 0), fmt=BINARY32), fp(2, (1, 1), fmt=BINARY32)]
        )
        assert t16.cycles == t32.cycles

    def test_trailing_latency_counted_to_writeback(self):
        t = replay([li(0), fp(1, (0, 0))])
        # li@0; fp issues @1, result @3.
        assert t.cycles == 3

    def test_div_blocks_fpu(self):
        t = replay(
            [
                li(0),
                fp(1, (0, 0), op="div"),
                fp(2, (0, 0), op="add"),  # structural hazard: waits
            ]
        )
        from repro.hardware.fpu import sequential_latency

        # div issues @1 and holds the FPU until 1 + latency.
        assert t.cycles >= 1 + sequential_latency("div") + 1

    def test_cast_single_cycle(self):
        t = replay(
            [
                li(0),
                Instr(Kind.CAST, dst=1, srcs=(0,), op="cvt_ff",
                      fmt=BINARY8, src_fmt=BINARY32),
                fp(2, (1, 1), fmt=BINARY8),
            ]
        )
        assert t.stall_cycles == 0


class TestLoadsAndBranches:
    def test_load_use_stall(self):
        t = replay([load(0), alu(1, 0)])
        assert t.stall_cycles == 1

    def test_load_no_stall_with_filler(self):
        t = replay([load(0), li(9), alu(1, 0)])
        assert t.stall_cycles == 0

    def test_taken_branch_pays_bubble(self):
        taken = replay(
            [Instr(Kind.BRANCH, taken=True), li(0)]
        )
        not_taken = replay(
            [Instr(Kind.BRANCH, taken=False), li(0)]
        )
        assert taken.cycles == not_taken.cycles + 1


class TestAttribution:
    def test_cycles_by_class(self):
        t = replay(
            [
                li(0),
                load(1),
                fp(2, (0, 0)),
                fp(3, (0, 0), fmt=BINARY8, lanes=4),
                Instr(Kind.CAST, dst=4, srcs=(2,), op="cvt_ff",
                      fmt=BINARY8, src_fmt=BINARY32),
                Instr(Kind.BRANCH, taken=True),
            ]
        )
        by_class = t.cycles_by_class
        assert by_class["other"] == 1      # the li
        assert by_class["mem"] == 1
        assert by_class["fp_scalar"] == 1
        assert by_class["fp_vector"] == 1
        assert by_class["branch"] == 2     # issue + taken bubble
        # By the time the cast issues, the fp32 result it consumes is
        # already forwardable: single issue cycle, no stall.
        assert by_class["cast"] == 1

    def test_total_class_cycles_equals_issue_plus_stalls(self):
        instrs = [li(0), load(1), fp(2, (1, 1)), alu(3, 2)]
        t = replay(instrs)
        assert sum(t.cycles_by_class.values()) == len(instrs) + t.stall_cycles

    def test_cycles_lower_bound(self):
        # Cycles can never undercut the instruction count.
        instrs = [li(i) for i in range(10)]
        t = replay(instrs)
        assert t.cycles >= t.instructions


HAZARD_STREAMS = {
    "load_use": [load(0), alu(1, 0)],
    "taken_branch": [Instr(Kind.BRANCH, taken=True), li(0)],
    "fp32_chain": [li(0), li(1), fp(2, (0, 1)), fp(3, (2, 1))],
    "div_blocks_fpu": [li(0), fp(1, (0, 0), op="div"), fp(2, (0, 0))],
    "sqrt_blocks_fpu": [li(0), fp(1, (0,), op="sqrt"), fp(2, (0, 0))],
}


class TestOracleAgreement:
    """The reference loop every bit-identity gate compares against must
    itself time the hand-checked hazards exactly as the replay does."""

    @pytest.mark.parametrize("case", sorted(HAZARD_STREAMS))
    def test_oracle_times_hazard_like_replay(self, case):
        from tests.oracles import simulate_timing

        instrs = HAZARD_STREAMS[case]
        t = replay(instrs)
        assert simulate_timing(instrs) == t
        # Each case pays its penalty: a stall, or the taken-branch bubble.
        assert t.stall_cycles > 0 or t.cycles > len(instrs)
