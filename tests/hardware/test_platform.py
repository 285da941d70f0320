"""Tests for the virtual platform's run reports."""

import pytest

from repro.core import BINARY8, BINARY16, BINARY32
from repro.hardware import KernelBuilder, VirtualPlatform


def small_program():
    b = KernelBuilder("p")
    x = b.alloc("x", [1.0, 2.0, 3.0, 4.0], BINARY8)
    y = b.alloc("y", [1.0, 1.0], BINARY16)
    out = b.zeros("out", 4, BINARY8)
    vx = b.load(x, 0, lanes=4)
    prod = b.fp("mul", BINARY8, vx, vx)
    b.store(out, 0, prod)
    sy = b.load(y, 0)
    sy8 = b.cast(sy, BINARY16, BINARY8)
    s = b.fp("add", BINARY8, b.fconst(1.0, BINARY8), sy8)
    b.store(out, 0, s)
    return b.program()


class TestRunReport:
    def setup_method(self):
        self.report = VirtualPlatform().run(small_program())

    def test_counts(self):
        assert self.report.instructions == len(small_program())
        assert self.report.cycles >= self.report.instructions

    def test_fp_operations_expand_lanes(self):
        ops = self.report.fp_operations()
        # 4-lane mul -> 4 elementwise ops flagged vector.
        assert ops[("binary8", "mul", True)] == 4
        assert ops[("binary8", "add", False)] == 1
        assert self.report.total_fp_operations() == 5

    def test_cast_counting(self):
        assert self.report.cast_instrs[("binary16", "binary8", 1)] == 1
        assert self.report.total_casts() == 1

    def test_memory_stats(self):
        assert self.report.memory.loads == 2
        assert self.report.memory.stores == 2
        assert self.report.memory.vector_accesses == 2

    def test_energy_positive_and_split(self):
        assert self.report.energy_pj > 0
        fractions = self.report.energy.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_cycle_attribution_accessors(self):
        assert self.report.cast_cycles() >= 1
        assert self.report.vector_cycles() >= 1


class TestLatencyOverride:
    def test_fast_16bit_never_slower(self):
        b = KernelBuilder("chain")
        acc = b.fconst(1.0, BINARY16)
        one = b.fconst(1.0, BINARY16)
        for _ in range(32):  # dependent chain: latency-bound
            acc = b.fp("add", BINARY16, acc, one)
        program = b.program()

        normal = VirtualPlatform().run(program)
        fast = VirtualPlatform(
            fp_latency_override={"binary16": 1}
        ).run(program)
        assert fast.cycles < normal.cycles
        # Energy is cycle-independent except stalls.
        assert fast.energy_pj <= normal.energy_pj

    def test_override_only_touches_named_formats(self):
        b = KernelBuilder("chain32")
        acc = b.fconst(1.0, BINARY32)
        one = b.fconst(1.0, BINARY32)
        for _ in range(8):
            acc = b.fp("add", BINARY32, acc, one)
        program = b.program()
        normal = VirtualPlatform().run(program)
        overridden = VirtualPlatform(
            fp_latency_override={"binary16": 1}
        ).run(program)
        assert overridden.cycles == normal.cycles


class TestCustomEnergyModel:
    def test_model_injection(self):
        """The platform splits with the calibrated default; another
        model's constants reach the same split through the columns."""
        from repro.hardware import (
            DEFAULT_ENERGY_MODEL,
            EnergyModel,
            energy_split_columns,
        )

        program = small_program()
        report = VirtualPlatform().run(program)
        stalls = report.timing.stall_cycles
        assert report.energy == energy_split_columns(
            DEFAULT_ENERGY_MODEL, program.columns(), stalls
        )
        expensive_mem = EnergyModel(dmem_access_pj=100.0)
        pricey = energy_split_columns(
            expensive_mem, program.columns(), stalls
        )
        assert pricey.mem_pj > report.energy.mem_pj
        assert pricey.fp_pj == report.energy.fp_pj
        assert pricey.other_pj == report.energy.other_pj


class TestReplaysShareAnalytics:
    def test_each_report_owns_its_counters(self):
        """A program's counters and energy sums are computed once and
        shared by its replays; each report gets copies, so changing one
        report leaves the next replay's untouched."""
        program = small_program()
        first = VirtualPlatform().run(program)
        want = VirtualPlatform().run(program).to_payload()
        first.memory.loads += 1
        first.memory.by_element_bits[7] = 1
        first.fp_instrs[("x", "add", 1)] += 1
        first.cast_instrs[("x", "y", 1)] += 1
        first.energy.other_pj += 1.0
        assert VirtualPlatform().run(program).to_payload() == want
        columns = program.columns()
        assert columns.counters() is columns.counters()
