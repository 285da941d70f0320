"""Div/sqrt structural hazards: the shipped replay moves no cycle.

The columnar replay keeps the FPU's sequential block as one busy-until
integer; the reference loop in ``tests/oracles.py`` drives a full
:class:`repro.hardware.fpu.FpuOccupancy`.  Every stream, synthetic or
real, must time bit-identically on both.
"""

import pytest

from repro.apps import APP_NAMES, make_app
from repro.core import BINARY8, BINARY16, BINARY32
from repro.hardware import Instr, Kind, lower_instrs, simulate_timing_columns
from repro.hardware.fpu import FpuOccupancy

from tests.oracles import simulate_timing


def replay(instrs, override=None):
    return simulate_timing_columns(lower_instrs(instrs), override)


def synthetic_stream():
    """Every hazard class: deps, loads, div/sqrt blocking, branches."""
    return [
        Instr(Kind.LI, dst=0),
        Instr(Kind.LI, dst=1),
        Instr(Kind.FP, dst=2, srcs=(0, 1), op="add", fmt=BINARY32),
        Instr(Kind.FP, dst=3, srcs=(2, 1), op="div", fmt=BINARY32),
        Instr(Kind.FP, dst=4, srcs=(0, 1), op="mul", fmt=BINARY16),
        Instr(Kind.FP, dst=5, srcs=(0, 1), op="sqrt", fmt=BINARY32),
        Instr(Kind.LOAD, dst=6, fmt=BINARY32, width=4),
        Instr(Kind.FP, dst=7, srcs=(6, 4), op="add", fmt=BINARY32),
        Instr(Kind.CAST, dst=8, srcs=(7,), op="cvt_ff",
              fmt=BINARY8, src_fmt=BINARY32),
        Instr(Kind.BRANCH, srcs=(8,), taken=True),
        Instr(Kind.FP, dst=9, srcs=(3, 5), op="add", fmt=BINARY32),
        Instr(Kind.STORE, srcs=(9,), fmt=BINARY32, width=4),
    ]


class TestBitIdenticalRefactor:
    def test_synthetic_stream(self):
        instrs = synthetic_stream()
        assert replay(instrs) == simulate_timing(instrs)

    def test_synthetic_stream_with_latency_override(self):
        instrs = synthetic_stream()
        override = {"binary16": 1, "binary32": 4}
        assert replay(instrs, override) == simulate_timing(instrs, override)

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_every_app_kernel(self, app_name):
        app = make_app(app_name, "tiny")
        program = app.build_program(app.baseline_binding())
        assert replay(program.instrs) == simulate_timing(program.instrs)

    def test_empty_stream(self):
        assert replay([]) == simulate_timing([])


class TestFpuOccupancy:
    def test_idle_unit_accepts_immediately(self):
        fpu = FpuOccupancy()
        assert fpu.earliest_issue(7) == 7

    def test_sequential_op_blocks_until_done(self):
        fpu = FpuOccupancy()
        fpu.note_issue_flagged(True, 10, 14)  # a div
        assert fpu.earliest_issue(11) == 24
        assert fpu.earliest_issue(30) == 30

    def test_pipelined_op_occupies_only_the_port(self):
        fpu = FpuOccupancy()
        fpu.note_issue_flagged(False, 10, 2)  # an add
        assert fpu.earliest_issue(10) == 11  # port busy this cycle
        assert fpu.earliest_issue(11) == 11  # pipelined: next op next cycle
