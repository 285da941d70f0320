"""Swept nests replay from their steady state, bit for bit.

``KernelBuilder.sweep`` records each outermost sweep whose iterations
emit the same rows (up to register ids) as a span of the stream, and
:func:`repro.hardware.simulate_timing_columns` steps a span's iterations
only until the pipeline state at an iteration boundary repeats, then
adds the remaining iterations' cycles and stalls at once.  Every test
here replays such streams against the per-``Instr`` loops of
``tests/oracles.py``, which know nothing of spans:

* the random bodies of ``tests/hardware/test_sweep.py`` over all its
  nests, built as sweeps (with spans) and as loops (without), plain and
  cast-stripped, under the default latencies and an override, through
  :class:`VirtualPlatform` (the full report) and through 1:1 and 1:4
  cluster replays;
* hand-made nests around the div/sqrt unit: a sequential op in the
  body, its result read or not, and FP work that the busy unit holds
  back; just before the sweep, a div, a sqrt or a load whose result
  the body may read, then filler instructions (0 to 19 after a div or
  sqrt), so every offset of the FPU's busy window, of the last
  write-back and of that register's ready time against the first
  iteration boundaries occurs; trip counts 1 to 3, as a hardware loop
  and as a soft loop nested under two loops;
* a branch whose outcome depends on the sweep index, or on a nested
  sweep's, which makes the nest ineligible for a span.

Replays broken on purpose fail here: one that leaves the FPU's busy
window out of the state, one that extrapolates a soft loop's last
iteration (whose branch falls through), and one that counts a boundary
before the registers read from outside the span are ready.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.cluster.engine import simulate_cluster_timing
from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.hardware import (
    DEFAULT_ENERGY_MODEL,
    KernelBuilder,
    Program,
    VirtualPlatform,
    simulate_timing_columns,
)
from repro.runner.jobs import strip_casts
from tests.hardware import test_sweep
from tests.hardware.test_sweep import NESTS, Kernel, Spec, nest_id
from tests.oracles import assemble_report_legacy, simulate_timing
from tests.oracles import simulate_cluster_timing as legacy_cluster_timing

OVERRIDES = (None, {"binary32": 3, "binary16": 1, "binary8": 2})


def assert_replays_match(program, override=None):
    """Columnar replay of ``program`` equals the oracle's."""
    want = simulate_timing(list(program.instrs), override)
    assert simulate_timing_columns(program.columns(), override) == want
    return want


def spec_programs(nest, seed):
    """A random body of ``tests/hardware/test_sweep.py`` built as a
    sweep and as a loop, drawn from the formats the FPU implements (the
    replay has latencies and energies for no others).  binary8 appears
    twice, in the custom 8-bit format's place, so a 4-lane value still
    has a format to cast to."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            test_sweep, "FORMATS",
            (BINARY8, BINARY16, BINARY16ALT, BINARY32, BINARY8),
        )
        spec = Spec(1000 * seed + NESTS.index(nest), nest)
        return (
            Kernel(spec, "sweep", KernelBuilder).build(),
            Kernel(spec, "loop", KernelBuilder).build(),
        )


# ----------------------------------------------------------------------
# The random sweep bodies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nest", NESTS, ids=nest_id)
def test_random_bodies_replay_like_their_loops(nest, seed):
    swept, looped = spec_programs(nest, seed)
    assert not looped.stream.spans
    # The first switchable level is the outermost sweep; it is laid
    # out unless a trip count on the way down is 0.
    first = [form for _, form in nest].index("s")
    assert bool(swept.stream.spans) == all(n for n, _ in nest[:first + 1])
    for override in OVERRIDES:
        for program in (swept, strip_casts(swept)):
            want = assert_replays_match(program, override)
            if program is swept:
                assert want == simulate_timing_columns(
                    looped.columns(), override
                )
        platform = VirtualPlatform(override)
        report = platform.run(swept)
        legacy = assemble_report_legacy(
            swept, simulate_timing(list(swept.instrs), override),
            DEFAULT_ENERGY_MODEL,
        )
        assert report.to_payload() == legacy.to_payload()


def test_random_bodies_cover_spans():
    """Spans of every kind occur: hardware and soft loops, and trip
    counts 1 to 4."""
    seen = set()
    for nest in NESTS:
        for seed in range(3):
            swept, _ = spec_programs(nest, seed)
            for span in strip_casts(swept).stream.spans + swept.stream.spans:
                seen.add((span[2], span[3]))
    assert {(1, True), (3, True), (4, True), (4, False)} <= seen


@pytest.mark.parametrize("fpu_ratio", (1, 4))
@pytest.mark.parametrize("seed", range(3))
def test_cluster_replays_match_the_oracle(seed, fpu_ratio):
    """Four cores, each a different swept body: 1:1 groups replay
    through the steady single-core pass, a 1:4 group per instruction."""
    programs = [
        spec_programs(nest, seed)[0]
        for nest in NESTS[3 + seed: 15: 3][:4]
    ]
    config = ClusterConfig(4, fpu_ratio)
    for override in OVERRIDES:
        got = simulate_cluster_timing(
            [p.columns() for p in programs], config, override
        )
        want = legacy_cluster_timing(
            [list(p.instrs) for p in programs], config, override
        )
        assert [r.timing for r in got] == [r.timing for r in want]
        assert [r.contention_stalls for r in got] == [
            r.contention_stalls for r in want
        ]


# ----------------------------------------------------------------------
# Hand-made nests around the div/sqrt unit
# ----------------------------------------------------------------------
def body_sqrt_read(b, i, x, out, a, pre):
    s = b.fsqrt(BINARY32, b.load(x, i))
    b.store(out, i, b.fp("add", BINARY32, s, s))


def body_sqrt_unread(b, i, x, out, a, pre):
    v = b.load(x, i)
    b.fsqrt(BINARY32, v)
    b.li(0)
    b.store(out, i, b.fp("mul", BINARY32, v, v))


def body_div_outer(b, i, x, out, a, pre):
    b.store(out, i, b.fdiv(BINARY32, b.load(x, i), pre))


def body_reads_outer(b, i, x, out, a, pre):
    v = b.fp("add", BINARY32, b.load(x, i), pre)
    b.store(out, i, b.fp("mul", BINARY32, v, v))


def body_stores_outer(b, i, x, out, a, pre):
    """Waits for ``pre`` outside the FPU, then leaves a sqrt running
    past a few one-cycle instructions."""
    b.store(out, i, pre)
    b.fsqrt(BINARY32, b.load(x, i))
    for _ in range(3):
        b.li(0)


def body_fp_first(b, i, x, out, a, pre):
    """FP work that can issue at the boundary, unless the FPU is busy,
    and a result still in flight at the next one."""
    b.store(out, i, b.fp("mul", BINARY32, a, a))
    b.fp("add", BINARY32, a, a)


def body_packed(b, i, x, out, a, pre):
    h = b.load(x, 2 * i, lanes=2)
    b.store(out, 2 * i, b.fp("mul", BINARY16, h, h))


BODIES = (
    body_sqrt_read, body_sqrt_unread, body_div_outer, body_reads_outer,
    body_stores_outer, body_fp_first, body_packed,
)


def seq_kernel(body, trips, fillers, pre_op, soft):
    """A load ``a``, ``pre`` (a div or sqrt of it, or ``a`` itself) and
    ``fillers`` one-cycle instructions, then a sweep of ``body`` --
    outermost at the first loop level, or under two loops, where it is
    a soft loop."""
    b = KernelBuilder("steady")
    fmt = BINARY16 if body is body_packed else BINARY32
    x = b.alloc("x", np.ones(16), fmt)
    a = b.load(x, 0)
    pre = {
        "div": lambda: b.fdiv(BINARY32, a, a),
        "sqrt": lambda: b.fsqrt(BINARY32, a),
        "load": lambda: a,
    }[pre_op]()
    for _ in range(fillers):
        b.li(0)
    outs = []

    def nest(loops):
        if loops:
            for _ in b.loop(loops):
                nest(loops - 1)
            return
        out = b.zeros(f"out{len(outs)}", 16, fmt)
        outs.append(out)
        for i in b.sweep(trips):
            body(b, i, x, out, a, pre)

    nest(2 if soft else 0)  # loops of 2 and 1 trips
    return b.program()


@pytest.mark.parametrize("soft", (False, True), ids=("hw", "soft"))
@pytest.mark.parametrize("pre_op", ("div", "sqrt", "load"))
@pytest.mark.parametrize("body", BODIES, ids=lambda f: f.__name__[5:])
def test_sequential_ops_around_the_sweep(body, pre_op, soft):
    # A load's result is ready two cycles on, so a few fillers after it
    # cover every offset; a div or sqrt needs up to 19.
    for trips in (1, 2, 3):
        for fillers in range(3 if pre_op == "load" else 20):
            program = seq_kernel(body, trips, fillers, pre_op, soft)
            spans = program.stream.spans
            assert len(spans) == (2 if soft else 1)
            assert all(
                (span.trips, span.hw) == (trips, not soft) for span in spans
            )
            assert_replays_match(program)


def test_index_dependent_branch_gets_no_span():
    b = KernelBuilder("branchy")
    x = b.alloc("x", np.ones(8), BINARY32)
    out = b.zeros("out", 8, BINARY32)
    same = b.zeros("same", 8, BINARY32)
    for i in b.sweep(8):
        v = b.load(x, i)
        b.branch(i % 3 == 0, v)
        b.store(out, i, b.fp("add", BINARY32, v, v))
    for i in b.sweep(8):  # the same outcome every iteration
        v = b.load(x, i)
        b.branch(True, v)
        b.store(same, i, v)
    program = b.program()
    assert [span[2] for span in program.stream.spans] == [8]
    assert program.stream.spans[0][0] > 8 * 4
    for override in OVERRIDES:
        want = assert_replays_match(program, override)
        flat = Program(program.name, list(program.instrs), program.arrays)
        assert not flat.stream.spans
        assert simulate_timing_columns(flat.columns(), override) == want


def test_branch_on_a_nested_index_gets_no_span():
    b = KernelBuilder("nested-branchy")
    x = b.alloc("x", np.ones(16), BINARY32)
    out = b.zeros("out", 16, BINARY32)
    for i in b.sweep(4):
        for j in b.sweep(4):
            v = b.load(x, i * 4 + j)
            b.branch(j == 0, v)
            b.store(out, i * 4 + j, b.fp("add", BINARY32, v, v))
    program = b.program()
    assert not program.stream.spans
    assert program.stream.stored == len(program)
    for override in OVERRIDES:
        assert_replays_match(program, override)
