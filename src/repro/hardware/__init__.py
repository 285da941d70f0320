"""Hardware models: transprecision FPU and PULPino-like virtual platform."""

from . import fpu
from .columnar import (
    ProgramColumns,
    count_memory_columns,
    energy_split_columns,
    instruction_mix_columns,
    lower_instrs,
    simulate_program_timing,
    simulate_timing_columns,
)
from .cpu import Timing
from .energy import DEFAULT_ENERGY_MODEL, EnergyBreakdown, EnergyModel
from .isa import BRANCH_TAKEN_PENALTY, LOAD_USE_LATENCY, Instr, Kind
from .memory import MemoryStats
from .platform import RunReport, VirtualPlatform, assemble_report, kernel_key
from .program import ArrayRef, KernelBuilder, Program, Reg
from .trace import InstructionMix, disassemble, instruction_mix

__all__ = [
    "fpu",
    "Instr",
    "Kind",
    "BRANCH_TAKEN_PENALTY",
    "LOAD_USE_LATENCY",
    "Timing",
    "simulate_timing_columns",
    "simulate_program_timing",
    "assemble_report",
    "kernel_key",
    "ProgramColumns",
    "lower_instrs",
    "count_memory_columns",
    "energy_split_columns",
    "instruction_mix_columns",
    "EnergyModel",
    "EnergyBreakdown",
    "DEFAULT_ENERGY_MODEL",
    "MemoryStats",
    "RunReport",
    "VirtualPlatform",
    "KernelBuilder",
    "Program",
    "ArrayRef",
    "Reg",
    "disassemble",
    "instruction_mix",
    "InstructionMix",
]
