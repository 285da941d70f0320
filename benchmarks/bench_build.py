"""Kernel build and replay wall time: ``KernelBuilder.loop`` against ``sweep``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_build.py -q

A sweep runs its loop body once, on index arrays, and lays out only
iteration 0's rows when its iterations repeat: the stream stores each
outermost sweep once, as a span with a trip count.  A loop runs the
body and emits every row once per iteration.  This bench builds one
jacobi-shaped stencil at paper size (a 24 x 24 interior, 30
software-loop iterations of a row x cell nest, binary32) from one body
function, with the nest as ``loop`` and as ``sweep``, on the ``fast``
backend.  The two streams, the sweep's read through its expanding view,
must be identical (the builder computes no values;
``tests/hardware/test_sweep.py`` checks through the value oracle that
both forms compute the same ones), the sweep build must store at most
``MAX_STORED`` of its rows, and it must be at least ``MIN_SPEEDUP``
times faster.

A sweep also makes the replay cheaper: the single-core replay steps a
span's template again per iteration only until the pipeline state
repeats.  The loop build's stream has no spans, so its replay steps
every instruction.  Both replays must give the same ``Timing``, and
the sweep's must be at least ``MIN_SPEEDUP`` times faster.

Nested sweeps are stored once too, each as a child span of the one
around it.  A deterministic gate pins that: core 0 of the paper jacobi
4-core partition (a row x cell nest per stencil sweep) stores at most
``MAX_PARTITION_STORED`` of its expanded rows.

Every ratio is of medians over ``ROUNDS`` interleaved rounds.  The
series go to ``results/bench/build.json`` (the replay under
``"replay"``, the partition under ``"partition"``), with each build's
expanded ``rows`` and ``stored_rows``.
"""

import json
import statistics
import time
from pathlib import Path

from repro.apps import make_app
from repro.apps.data import SCALES, jacobi_inputs
from repro.core import BINARY32
from repro.hardware import KernelBuilder, simulate_timing_columns
from repro.session import Session
from repro.tuning.variables import uniform_binding

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"

SCALE = "paper"
ROUNDS = 5
#: The sweep build, and its replay, must be at least this many times
#: faster.
MIN_SPEEDUP = 4.0
#: The sweep build stores at most this share of its rows (one template
#: row per 24 of the 24 x 24 nest, plus the loop machinery).
MAX_STORED = 1 / 20
#: Core 0 of the paper jacobi 4-core partition stores at most this share
#: of its rows (each row sweep and each cell sweep inside it once).
MAX_PARTITION_STORED = 1 / 50


def stencil(form: str):
    """The jacobi sweep kernel with its row x cell nest as ``form``."""
    scale = SCALES[SCALE]
    grid_np, source_np = jacobi_inputs(scale, 0)
    inner = scale.jacobi_n
    n = inner + 2
    b = KernelBuilder(f"stencil-{form}")
    nest = getattr(b, form)
    src_buf = b.alloc("grid", grid_np.reshape(-1), BINARY32)
    dst_buf = b.alloc("grid_pong", grid_np.reshape(-1), BINARY32)
    source = b.alloc("source", source_np.reshape(-1), BINARY32)
    quarter = b.fconst(0.25, BINARY32)
    for _ in b.loop(scale.jacobi_iters, soft=True):
        for r in nest(inner):
            for c in nest(inner):
                rr, cc = r + 1, c + 1
                up = b.load(src_buf, (rr - 1) * n + cc)
                down = b.load(src_buf, (rr + 1) * n + cc)
                left = b.load(src_buf, rr * n + (cc - 1))
                right = b.load(src_buf, rr * n + (cc + 1))
                total = b.fp(
                    "add", BINARY32,
                    b.fp("add", BINARY32, up, down),
                    b.fp("add", BINARY32, left, right),
                )
                scaled = b.fp("mul", BINARY32, total, quarter)
                s = b.load(source, rr * n + cc)
                b.store(dst_buf, rr * n + cc,
                        b.fp("add", BINARY32, scaled, s))
        src_buf, dst_buf = dst_buf, src_buf
    return b.program()


def emitted(program):
    """The expanded stream: rows, sources, register count, intern
    tables."""
    stream = program.stream.expanded()
    return (
        stream.rows.tobytes(), stream.srcs, stream.n_regs, stream.ops,
        [None if f is None else (f.exp_bits, f.man_bits, f.name)
         for f in stream.formats],
    )


def record(update: dict) -> Path:
    """Merge ``update`` into ``build.json``, which both tests write."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "build.json"
    series = json.loads(out.read_text()) if out.exists() else {}
    series.update(update)
    out.write_text(json.dumps(series, indent=2))
    print(f"\nwrote {out}")
    return out


def test_sweep_builds_faster_than_loop():
    times = {"loop": [], "sweep": []}
    programs = {}
    with Session(backend="fast"):
        stencil("sweep")  # warm the caches both forms share
        # Rounds alternate the two forms, so host-load drift lands on
        # both alike instead of skewing the ratio.
        for _ in range(ROUNDS):
            for form in times:
                start = time.perf_counter()
                programs[form] = stencil(form)
                times[form].append(time.perf_counter() - start)
    assert emitted(programs["sweep"]) == emitted(programs["loop"])
    rows = {form: p.stream.stored for form, p in programs.items()}
    assert rows["loop"] == len(programs["sweep"])
    assert rows["sweep"] <= MAX_STORED * rows["loop"], (
        f"the sweep build stores {rows['sweep']} of its {rows['loop']} "
        f"rows (gate {MAX_STORED:.3g})"
    )

    loop_s = statistics.median(times["loop"])
    sweep_s = statistics.median(times["sweep"])
    speedup = loop_s / sweep_s
    series = {
        "scale": SCALE,
        "kernel": "jacobi-shaped stencil, binary32",
        "instructions": len(programs["sweep"]),
        "rows": rows["loop"],
        "stored_rows": rows,
        "rounds": ROUNDS,
        "loop_s": loop_s,
        "sweep_s": sweep_s,
        "speedup": speedup,
        "runs": times,
    }
    record(series)
    print(
        f"  {series['instructions']} instructions ({rows['sweep']} stored "
        f"by the sweep): loop {loop_s * 1e3:.1f} ms, sweep "
        f"{sweep_s * 1e3:.1f} ms, {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"sweep build only {speedup:.2f}x faster than loop "
        f"(gate {MIN_SPEEDUP:g}x)"
    )


def test_sweep_replays_faster_than_loop():
    with Session(backend="fast"):
        programs = {form: stencil(form) for form in ("loop", "sweep")}
    assert not programs["loop"].stream.spans
    assert len(programs["sweep"].stream.spans) == SCALES[SCALE].jacobi_iters
    columns = {form: p.columns() for form, p in programs.items()}
    times = {form: [] for form in columns}
    timings = {}
    for _ in range(ROUNDS):
        for form, cols in columns.items():
            start = time.perf_counter()
            timings[form] = simulate_timing_columns(cols)
            times[form].append(time.perf_counter() - start)
    assert timings["sweep"] == timings["loop"]

    loop_s = statistics.median(times["loop"])
    sweep_s = statistics.median(times["sweep"])
    speedup = loop_s / sweep_s
    record({"replay": {
        "instructions": columns["sweep"].n,
        "stored_rows": {form: len(c.kind) for form, c in columns.items()},
        "cycles": timings["sweep"].cycles,
        "spans": len(programs["sweep"].stream.spans),
        "rounds": ROUNDS,
        "loop_s": loop_s,
        "sweep_s": sweep_s,
        "speedup": speedup,
        "runs": times,
    }})
    print(
        f"  replay of {columns['sweep'].n} instructions: loop "
        f"{loop_s * 1e3:.1f} ms, sweep {sweep_s * 1e3:.1f} ms, "
        f"{speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"sweep replay only {speedup:.2f}x faster than loop "
        f"(gate {MIN_SPEEDUP:g}x)"
    )


def test_partition_stores_nested_sweeps_once():
    app = make_app("jacobi", SCALE)
    with Session(backend="fast"):
        program = app.partition(
            4, uniform_binding(app, BINARY32), 0, vectorize=True
        )[0]
    rows, stored = len(program), program.stream.stored
    assert any(span.children for span in program.stream.spans)
    record({"partition": {
        "kernel": "jacobi, 4-core partition, core 0, binary32",
        "rows": rows,
        "stored_rows": stored,
    }})
    print(f"  partition core 0: {stored} of {rows} rows stored")
    assert stored <= MAX_PARTITION_STORED * rows, (
        f"jacobi partition core 0 stores {stored} of its {rows} rows "
        f"(gate {MAX_PARTITION_STORED:.3g})"
    )
