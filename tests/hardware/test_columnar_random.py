"""Randomized-stream parity: columnar replay equals the oracle, always.

The app kernels only exercise the hazard patterns the kernel builders
happen to emit.  These tests feed the columnar engine and the
per-``Instr`` reference loops (``tests/oracles.py``) *arbitrary legal*
instruction streams -- seeded, so failures reproduce -- mixing every
kind, format, lane width, taken/untaken branches, long and short
dependence chains, and div/sqrt structural hazards, and require the
full :class:`Timing` / report / memory / mix parity to hold bit for
bit on each one.
"""

import json
import random

import pytest

from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.hardware import (
    DEFAULT_ENERGY_MODEL,
    Instr,
    Kind,
    Program,
    assemble_report,
    count_memory_columns,
    instruction_mix_columns,
    lower_instrs,
    simulate_timing_columns,
)

from tests.oracles import (
    assemble_report_legacy,
    count_memory,
    instruction_mix_legacy,
    simulate_timing,
)

FORMATS = (BINARY8, BINARY16, BINARY16ALT, BINARY32)
#: Legal SIMD widths per format (scalar always; packed fills 32 bits).
LANES = {BINARY8: (1, 4), BINARY16: (1, 2), BINARY16ALT: (1, 2), BINARY32: (1,)}
FP_OPS = ("add", "sub", "mul", "div", "sqrt", "cmp")


def random_stream(rng, length, reuse=False, orphans=False):
    """One legal stream.

    By default every register is fresh and written before it is read.
    ``reuse`` lets writes land on already-written registers (a later
    producer replaces an earlier one in the scoreboard); ``orphans``
    lets reads hit registers no instruction writes, as in a stream
    whose casts were stripped.
    """
    instrs = []
    written = []
    unwritten = []
    next_id = [0]

    def fresh():
        reg = next_id[0]
        next_id[0] += 1
        return reg

    def src():
        if orphans and rng.random() < 0.2:
            if not unwritten or rng.random() < 0.3:
                unwritten.append(fresh())
            return rng.choice(unwritten)
        return rng.choice(written)

    def srcs(n):
        return tuple(src() for _ in range(n))

    def next_reg():
        if reuse and written and rng.random() < 0.5:
            return rng.choice(written)
        reg = fresh()
        written.append(reg)
        return reg

    # Seed a few registers so the first draws have producers.
    for _ in range(2):
        instrs.append(Instr(Kind.LI, dst=next_reg()))

    while len(instrs) < length:
        roll = rng.random()
        fmt = rng.choice(FORMATS)
        lanes = rng.choice(LANES[fmt])
        if roll < 0.35:
            op = rng.choice(FP_OPS)
            if op in ("div", "sqrt"):
                # The transprecision FPU implements the sequential ops
                # in binary32 only (scalar).
                fmt, lanes = BINARY32, 1
            n_srcs = 1 if op == "sqrt" else 2
            instrs.append(
                Instr(
                    Kind.FP,
                    dst=next_reg(),
                    srcs=srcs(n_srcs),
                    op=op,
                    fmt=fmt,
                    lanes=lanes,
                )
            )
        elif roll < 0.5:
            if rng.random() < 0.5:
                instrs.append(
                    Instr(
                        Kind.LOAD,
                        dst=next_reg(),
                        fmt=fmt,
                        lanes=lanes,
                        width=fmt.storage_bytes * lanes,
                    )
                )
            else:
                instrs.append(
                    Instr(
                        Kind.STORE,
                        srcs=srcs(1),
                        fmt=fmt,
                        lanes=lanes,
                        width=fmt.storage_bytes * lanes,
                    )
                )
        elif roll < 0.62:
            src_fmt = rng.choice(FORMATS)
            kind = rng.random()
            if kind < 0.6:
                instrs.append(
                    Instr(
                        Kind.CAST,
                        dst=next_reg(),
                        srcs=srcs(1),
                        op="cvt_ff",
                        fmt=fmt,
                        src_fmt=src_fmt,
                        lanes=lanes,
                    )
                )
            elif kind < 0.8:
                instrs.append(
                    Instr(
                        Kind.CAST,
                        dst=next_reg(),
                        srcs=srcs(1),
                        op="cvt_fi",
                        src_fmt=src_fmt,
                    )
                )
            else:
                instrs.append(
                    Instr(
                        Kind.CAST,
                        dst=next_reg(),
                        srcs=srcs(1),
                        op="cvt_if",
                        fmt=fmt,
                    )
                )
        elif roll < 0.72:
            instrs.append(
                Instr(
                    Kind.BRANCH,
                    srcs=srcs(1),
                    taken=rng.random() < 0.5,
                )
            )
        elif roll < 0.8:
            instrs.append(Instr(Kind.LOOP_SETUP))
        elif roll < 0.9:
            instrs.append(Instr(Kind.ALU, dst=next_reg(), srcs=srcs(1)))
        else:
            instrs.append(Instr(Kind.LI, dst=next_reg()))
    return instrs


@pytest.mark.parametrize("seed", range(12))
def test_random_stream_timing_parity(seed):
    rng = random.Random(seed)
    instrs = random_stream(rng, rng.randrange(5, 400))
    columns = lower_instrs(instrs)
    legacy = simulate_timing(instrs)
    columnar = simulate_timing_columns(columns)
    assert columnar == legacy
    assert columnar.to_payload() == legacy.to_payload()
    assert list(columnar.cycles_by_class) == list(legacy.cycles_by_class)


@pytest.mark.parametrize("seed", range(12, 18))
def test_random_stream_timing_parity_with_override(seed):
    rng = random.Random(seed)
    instrs = random_stream(rng, rng.randrange(5, 400))
    override = {
        fmt.name: rng.randrange(1, 10)
        for fmt in rng.sample(FORMATS, rng.randrange(1, len(FORMATS) + 1))
    }
    assert simulate_timing_columns(
        lower_instrs(instrs), override
    ) == simulate_timing(instrs, override)


@pytest.mark.parametrize("seed", range(18, 24))
def test_random_stream_report_parity(seed):
    rng = random.Random(seed)
    instrs = random_stream(rng, rng.randrange(5, 300))
    program = Program(f"random-{seed}", instrs, {})
    timing = simulate_timing(instrs)
    columnar = assemble_report(program, timing)
    legacy = assemble_report_legacy(program, timing, DEFAULT_ENERGY_MODEL)
    assert json.dumps(columnar.to_payload()) == json.dumps(legacy.to_payload())
    assert columnar.energy == legacy.energy
    columns = program.columns()
    assert count_memory_columns(columns) == count_memory(instrs)
    assert instruction_mix_columns(columns) == instruction_mix_legacy(
        program
    )


@pytest.mark.parametrize("seed", range(24, 36))
@pytest.mark.parametrize(
    "mode", [{"reuse": True}, {"orphans": True}], ids=["reuse", "orphans"]
)
def test_register_reuse_and_orphan_reads(seed, mode):
    """Overwritten producers and never-written sources (what
    stripping a program's casts leaves) time like the oracle."""
    rng = random.Random(seed)
    instrs = random_stream(rng, rng.randrange(5, 400), **mode)
    override = {"binary32": 9, "binary16": 2} if seed % 2 else None
    columnar = simulate_timing_columns(lower_instrs(instrs), override)
    legacy = simulate_timing(instrs, override)
    assert columnar == legacy
    assert list(columnar.cycles_by_class) == list(legacy.cycles_by_class)


def test_divsqrt_saturated_stream():
    """Back-to-back sequential ops: the structural hazard dominates."""
    rng = random.Random(99)
    instrs = [Instr(Kind.LI, dst=0), Instr(Kind.LI, dst=1)]
    for i in range(2, 80):
        instrs.append(
            Instr(
                Kind.FP,
                dst=i,
                srcs=(rng.randrange(i), rng.randrange(i)),
                op=rng.choice(("div", "sqrt")),
                fmt=BINARY32,
            )
        )
    assert simulate_timing_columns(lower_instrs(instrs)) == simulate_timing(
        instrs
    )
