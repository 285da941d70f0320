"""Tests for the platform energy model and memory accounting."""

import pytest

from repro.core import BINARY8, BINARY16, BINARY32
from repro.hardware import (
    DEFAULT_ENERGY_MODEL,
    EnergyModel,
    Instr,
    Kind,
    count_memory_columns,
    lower_instrs,
)
from repro.hardware.fpu import op_energy_pj
from tests.oracles import category, energy_split, instruction_energy_pj


def memory_stats(instrs):
    """Memory counters as the shipped (columnar) replay tallies them."""
    return count_memory_columns(lower_instrs(instrs))


def load(fmt=BINARY32, lanes=1, width=4):
    return Instr(Kind.LOAD, dst=0, fmt=fmt, lanes=lanes, width=width)


def store(fmt=BINARY32, lanes=1, width=4):
    return Instr(Kind.STORE, srcs=(0,), fmt=fmt, lanes=lanes, width=width)


def fp(op="add", fmt=BINARY32, lanes=1):
    return Instr(Kind.FP, dst=1, srcs=(0, 0), op=op, fmt=fmt, lanes=lanes)


class TestInstructionEnergy:
    def test_alu_pays_issue_only(self):
        model = EnergyModel()
        assert instruction_energy_pj(
            model, Instr(Kind.ALU, dst=0)
        ) == pytest.approx(model.issue_pj)

    def test_load_adds_dmem(self):
        model = EnergyModel()
        assert instruction_energy_pj(model, load()) == pytest.approx(
            model.issue_pj + model.dmem_access_pj
        )

    def test_fp_adds_fpu_energy(self):
        model = EnergyModel()
        assert instruction_energy_pj(model, fp()) == pytest.approx(
            model.issue_pj + op_energy_pj(BINARY32, "add")
        )

    def test_vector_fp_energy_scales_with_lanes(self):
        model = EnergyModel()
        scalar = instruction_energy_pj(model, fp(fmt=BINARY8))
        vector = instruction_energy_pj(model, fp(fmt=BINARY8, lanes=4))
        assert vector - model.issue_pj == pytest.approx(
            4 * (scalar - model.issue_pj)
        )

    def test_vector_load_costs_one_access(self):
        # The key memory win: 4 packed binary8 operands = 1 TCDM access.
        model = EnergyModel()
        packed = instruction_energy_pj(
            model, load(BINARY8, lanes=4, width=4)
        )
        scalar = instruction_energy_pj(
            model, load(BINARY8, lanes=1, width=1)
        )
        assert packed == scalar

    def test_cast_energy(self):
        model = EnergyModel()
        instr = Instr(
            Kind.CAST, dst=1, srcs=(0,), op="cvt_ff",
            fmt=BINARY8, src_fmt=BINARY32,
        )
        assert instruction_energy_pj(model, instr) > model.issue_pj


class TestSplit:
    def test_categories(self):
        assert category(fp()) == "fp"
        assert category(load()) == "mem"
        assert category(Instr(Kind.ALU)) == "other"
        assert category(Instr(Kind.BRANCH)) == "other"
        cast = Instr(Kind.CAST, fmt=BINARY8, src_fmt=BINARY32, op="cvt_ff")
        assert category(cast) == "fp"

    def test_split_is_additive(self):
        model = EnergyModel()
        instrs = [load(), fp(), Instr(Kind.ALU), store()]
        breakdown = energy_split(model, instrs, stall_cycles=3)
        by_hand = sum(instruction_energy_pj(model, i) for i in instrs)
        assert breakdown.total_pj == pytest.approx(
            by_hand + 3 * model.stall_pj
        )

    def test_datapath_attribution(self):
        # Issue costs land in "other"; only the FPU datapath is "fp" and
        # only the memory port is "mem" (the paper's 30%/20% framing).
        model = EnergyModel()
        breakdown = energy_split(model, [fp()], stall_cycles=0)
        assert breakdown.fp_pj == pytest.approx(op_energy_pj(BINARY32, "add"))
        assert breakdown.other_pj == pytest.approx(model.issue_pj)
        breakdown = energy_split(model, [load()], stall_cycles=0)
        assert breakdown.mem_pj == pytest.approx(model.dmem_access_pj)
        assert breakdown.other_pj == pytest.approx(model.issue_pj)

    def test_stalls_attributed_to_other(self):
        model = EnergyModel()
        a = energy_split(model, [], stall_cycles=0)
        b = energy_split(model, [], stall_cycles=10)
        assert b.other_pj - a.other_pj == pytest.approx(10 * model.stall_pj)

    def test_fractions_sum_to_one(self):
        model = EnergyModel()
        breakdown = energy_split(
            model, [load(), fp(), Instr(Kind.ALU)], 1
        )
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)

    def test_empty_fractions(self):
        model = EnergyModel()
        assert energy_split(model, [], 0).fractions() == {
            "fp": 0.0,
            "mem": 0.0,
            "other": 0.0,
        }

    def test_default_model_exists(self):
        assert DEFAULT_ENERGY_MODEL.issue_pj > 0


class TestMemoryStats:
    def test_counts(self):
        stats = memory_stats(
            [
                load(),
                load(BINARY16, lanes=2, width=4),
                store(BINARY8, lanes=4, width=4),
                fp(),
                Instr(Kind.ALU),
            ]
        )
        assert stats.loads == 2
        assert stats.stores == 1
        assert stats.total == 3
        assert stats.vector_accesses == 2
        assert stats.scalar_accesses == 1
        assert stats.bytes_moved == 12

    def test_by_element_bits(self):
        stats = memory_stats(
            [load(BINARY16, lanes=2, width=4), load(BINARY16, width=2),
             load(None, width=4)]
        )
        assert stats.by_element_bits == {16: 2, 32: 1}

    def test_empty(self):
        stats = memory_stats([])
        assert stats.total == 0
        assert stats.bytes_moved == 0
