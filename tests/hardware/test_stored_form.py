"""A repeating sweep is stored once, and every reader sees it expanded.

``KernelBuilder.sweep`` stores an outermost sweep whose iterations
repeat as one :class:`~repro.hardware.columnar.Span`: iteration 0's
rows, its trip count and (for a soft loop) the fall-through branch that
ends the last iteration.  The expanding view -- ``program.instrs`` and
``InstrStream.expanded`` -- rebuilds every later iteration from them.

The random bodies of ``tests/hardware/test_sweep.py`` are built here
with their outermost switchable level as a hardware or a soft sweep of
1, 2, 3 or its own trip count, plain and cast-stripped
(``InstrStream.without_kind`` re-bases spans without expanding), and
for each build:

* the expanding view equals the loop build's stream, field by field;
* the stream stores the rows outside its spans plus each span's
  template (and a soft span's fall-through branch), nothing more;
* ``len(program)`` and ``len(program.instrs)`` count the expanded rows
  without expanding, and ``program.instrs[:k]`` builds ``k`` rows;
* ``VirtualPlatform.run`` and four-core cluster runs at 1:1, 1:2 and
  1:4 give the payloads of the per-``Instr`` oracles in
  ``tests/oracles.py``, which run on the expanded ``Instr`` lists.

Last, the paper-scale jacobi build stores under 1/20 of its rows, and
indexing the view (a bisection over cached segment starts) reads the
rows of ``stream.expanded()`` of a nested jacobi partition and a nested
random body.
"""

import json

import numpy as np
import pytest

from repro.apps import make_app
from repro.cluster import ClusterConfig, ClusterPlatform
from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.hardware import DEFAULT_ENERGY_MODEL, KernelBuilder, VirtualPlatform
from repro.hardware import columnar
from repro.hardware.program import HW_LOOP_LEVELS
from repro.runner.jobs import strip_casts
from repro.session import Session
from tests.hardware import test_sweep
from tests.hardware.test_sweep import NESTS, Kernel, Spec, nest_id
from tests.oracles import (
    assemble_report_legacy,
    cluster_report_legacy,
    simulate_timing,
)

TRIPS = (1, 2, 3, None)  # None: the nest's own trip count
FORMS = {"hw": "s", "soft": "w"}


def fmt_key(fmt):
    return None if fmt is None else (fmt.exp_bits, fmt.man_bits, fmt.name)


def fields(ins):
    return (
        ins.kind, ins.dst, tuple(ins.srcs), ins.op, fmt_key(ins.fmt),
        fmt_key(ins.src_fmt), ins.lanes, ins.width, bool(ins.taken),
    )


def first_switchable(nest) -> int:
    return next(d for d, (_, form) in enumerate(nest) if form in "sw")


def variant(nest, trips, form):
    """``nest`` with its first switchable level as ``form`` and
    ``trips`` iterations."""
    first = first_switchable(nest)
    n = nest[first][0] if trips is None else trips
    return nest[:first] + ((n, form),) + nest[first + 1:]


def builds(nest, trips, form):
    """A random body with the level changed, as a sweep and as a loop,
    in the formats the FPU implements (see test_steady_replay)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            test_sweep, "FORMATS",
            (BINARY8, BINARY16, BINARY16ALT, BINARY32, BINARY8),
        )
        spec = Spec(NESTS.index(nest), variant(nest, trips, form))
        return (
            Kernel(spec, "sweep", KernelBuilder).build(),
            Kernel(spec, "loop", KernelBuilder).build(),
        )


def payload(report):
    return json.dumps(report.to_payload())


@pytest.mark.parametrize("trips", TRIPS, ids=lambda t: f"n{t or ''}")
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("nest", NESTS, ids=nest_id)
def test_stored_sweeps_read_back_as_their_loops(nest, form, trips,
                                                monkeypatch):
    swept, looped = builds(nest, trips, FORMS[form])
    # One span per iteration of the loops around the level, each a
    # hardware loop only where the nest depth allows one.
    depth = first_switchable(nest)
    n = nest[depth][0] if trips is None else trips
    hw = form == "hw" and depth < HW_LOOP_LEVELS
    spans = swept.stream.spans
    assert len(spans) == (n > 0) * np.prod([t for t, _ in nest[:depth]])
    assert all((span.trips, span.hw) == (n, hw) for span in spans)
    assert not looped.stream.spans
    pairs = ((swept, looped), (strip_casts(swept), strip_casts(looped)))
    for program, loop_form in pairs:
        stream, want = program.stream, loop_form.stream
        # The expanding view is the loop build's stream.
        assert [fields(i) for i in program.instrs] == [
            fields(i) for i in loop_form.instrs
        ]
        expanded = stream.expanded()
        assert expanded.rows == want.rows
        assert expanded.srcs == want.srcs
        assert stream.n_regs == expanded.n_regs == want.n_regs
        # Stored: the rows outside the spans and one template each.
        outside = len(want) - sum(s.expanded_rows() for s in stream.spans)
        assert stream.stored == outside + sum(
            s.end - s.row0 for s in stream.spans
        )
        # Replays equal the oracles on the expanded Instr lists.
        legacy = assemble_report_legacy(
            program, simulate_timing(list(program.instrs)),
            DEFAULT_ENERGY_MODEL,
        )
        assert payload(VirtualPlatform().run(program)) == payload(legacy)

    # Counting never expands; a prefix builds only its own rows.
    with monkeypatch.context() as patch:
        patch.setattr(columnar.InstrStream, "_pieces", None)
        assert len(swept) == len(swept.instrs) == len(looped)
    built = []
    build_one = columnar._instr
    monkeypatch.setattr(
        columnar, "_instr", lambda *a: built.append(1) or build_one(*a)
    )
    for k in sorted({0, 1, len(looped) // 2, len(looped)}):
        want = [fields(i) for i in looped.instrs[:k]]
        built.clear()
        assert [fields(i) for i in swept.instrs[:k]] == want
        assert len(built) == k


@pytest.mark.parametrize("fpu_ratio", (1, 2, 4))
@pytest.mark.parametrize("form", FORMS)
def test_cluster_runs_match_the_oracle(form, fpu_ratio):
    """Four cores, each a different stored body (one cast-stripped),
    against the per-``Instr`` cluster oracle."""
    programs = [
        builds(nest, trips, FORMS[form])[0]
        for nest, trips in zip(NESTS[3:18:4], (1, 2, 3, None))
    ]
    programs[1] = strip_casts(programs[1])
    assert all(p.stream.spans for p in programs)
    config = ClusterConfig(4, fpu_ratio)
    got = ClusterPlatform(config).run(programs, name="stored")
    want = cluster_report_legacy(programs, config, name="stored")
    assert payload(got) == payload(want)


def test_paper_jacobi_stores_a_twentieth_of_its_rows():
    app = make_app("jacobi", "paper")
    binding = {spec.name: BINARY32 for spec in app.variables()}
    with Session(backend="fast"):
        program = app.build_program(binding, 0, vectorize=False)
    assert len(program) == len(program.instrs) == 295_804
    assert program.stream.stored <= 13_000
    # One span per stencil sweep, and one for the residual.
    assert len(program.stream.spans) == app.scale.jacobi_iters + 1


def test_integer_indexing_reads_the_expanded_rows():
    """``InstrView`` indexing (a bisection over cached segment starts)
    returns exactly the rows of ``stream.expanded()``: every 97th row
    and the last five, by negative index, of a paper jacobi partition
    (spans nested two deep) and of a random nested sweep body."""
    app = make_app("jacobi", "paper")
    binding = {spec.name: BINARY16ALT for spec in app.variables()}
    with Session(backend="fast"):
        partition = app.partition(4, binding, 0, True)[0]
    swept, _ = builds(((2, "s"), (3, "s"), (2, "s")), None, "s")
    for program in (partition, swept):
        assert any(span.children for span in program.stream.spans)
        want = list(program.stream.expanded())
        view = program.instrs
        assert len(view) == len(want)
        for i in range(0, len(want), 97):
            assert fields(view[i]) == fields(want[i])
        for i in range(-5, 0):
            assert fields(view[i]) == fields(want[i])
        with pytest.raises(IndexError):
            view[len(want)]
