"""``KernelBuilder.sweep`` emits exactly what ``KernelBuilder.loop`` emits.

Seeded random kernel bodies are built twice from one body function,
once with every switchable loop level as ``loop`` and once as
``sweep``, and the two programs must agree on every emitted row and
source tuple, the register count, the intern tables and every array's
bytes.  The builds run through the value oracle
(:class:`tests.oracles.ValueBuilder`), which emits through the shipped
builder and computes the values a loop computes per iteration and a
sweep for all iterations at once, so the array bytes check that the
two forms compute the same thing; the shipped builder's own sweep
build must emit the oracle's stream.  The bodies load every format
(the standard ones and a custom 8-bit one) at every lane count it
packs, mix arithmetic, compares, casts, lane shuffles and constants,
read registers from outside the nest and from enclosing levels, and
store per iteration.  Nests are 1--3 deep, with trip counts 0, 1 and
n, and may sit inside a ``loop`` or hold one.  A sweep, like a loop,
is a hardware loop at the first two loop levels and a software one
below them, so the 3-deep nests and the sweeps inside fixed loops
cover both; ``sweep(soft=True)`` is a software loop at any level, and
is checked against ``loop(soft=True)`` at the first two.

Then one test per sweep rule, each expecting a raise: the shipped
builder's rule on register reads, and the oracle's two memory rules.
"""

import numpy as np
import pytest

from repro.core import (
    BINARY8, BINARY16, BINARY32, STANDARD_FORMATS, FPFormat,
)
from repro.hardware import KernelBuilder, Kind
from repro.hardware.program import HW_LOOP_LEVELS
from repro.session import Session
from tests.oracles import ValueBuilder

FORMATS = STANDARD_FORMATS + (FPFormat(4, 3),)
BACKENDS = ("fast", "reference")
#: Elements per input array: covers every load index the specs draw.
INPUT_SIZE = 64

#: Loop nests as (trip count, form) per level: "s" is a ``loop`` in
#: one build and a ``sweep`` in the other, "w" the same with
#: ``soft=True`` on both, "L" a ``loop`` in both and "S" a
#: ``loop(soft=True)`` in both.
NESTS = (
    ((0, "s"),),
    ((1, "s"),),
    ((4, "s"),),
    ((3, "s"), (4, "s")),
    ((1, "s"), (0, "s")),
    ((3, "L"), (4, "s")),
    ((4, "s"), (3, "S")),
    ((2, "s"), (3, "s"), (2, "s")),
    ((3, "s"), (1, "s"), (0, "s")),
    ((1, "s"), (2, "s"), (3, "s")),
    ((2, "s"), (2, "s"), (1, "s")),
    ((2, "L"), (3, "L"), (4, "s")),
    ((2, "S"), (1, "L"), (0, "s")),
    ((2, "S"), (3, "s"), (2, "s")),
    ((2, "L"), (2, "s"), (3, "s")),
    ((3, "w"), (2, "s")),
    ((1, "w"), (3, "s")),
    ((2, "L"), (3, "w"), (2, "s")),
    ((2, "S"), (1, "w"), (3, "s")),
)


def lane_counts(fmt):
    return [n for n in (1, 2, 4) if n == 1 or n * fmt.bits <= 32]


class Spec:
    """A random kernel body: the ops of each nest level, drawn once.

    Registers are tracked symbolically as (format, lanes) slots while
    drawing, so the interpreter can replay the choices by position.
    """

    def __init__(self, seed: int, nest) -> None:
        self.rng = np.random.default_rng(seed)
        self.nest = nest
        self.inputs = {
            i: self.rng.uniform(-2.0, 2.0, INPUT_SIZE)
            for i in range(len(FORMATS))
        }
        self.n_stores = 0
        pool: list = []
        self.outer = self._loads(pool, depth=-1, every=False)
        self.outer += self._ops(pool, depth=-1, count=4, stores=False)
        self.levels = []
        for depth in range(len(nest)):
            pre = self._loads(pool, depth, every=depth == len(nest) - 1)
            pre += self._ops(pool, depth, count=8)
            mark = len(pool)
            self.levels.append((pre, mark))
        self.posts = []
        for depth in reversed(range(len(nest) - 1)):
            # After the inner level closes, only this level's registers
            # (and enclosing ones) are live.
            del pool[self.levels[depth][1]:]
            self.posts.insert(0, self._ops(pool, depth, count=3))

    def _loads(self, pool, depth, every):
        """Loads of every format at every lane count (or a few)."""
        combos = [
            (f, lanes) for f in range(len(FORMATS))
            for lanes in lane_counts(FORMATS[f])
        ]
        if not every:
            picks = self.rng.choice(len(combos), 3, replace=False)
            combos = [combos[p] for p in picks]
        ops = []
        for f, lanes in combos:
            coefs = self.rng.integers(0, 4, max(depth + 1, 0)).tolist()
            offset = int(self.rng.integers(0, 20))
            ops.append(("load", f, lanes, coefs, offset))
            pool.append((f, lanes))
        return ops

    def _ops(self, pool, depth, count, stores=True):
        ops = []
        for _ in range(count):
            kind = self.rng.choice(
                ["fp", "fp", "fp", "cmp", "cast", "const", "lane", "store"]
                if stores else ["fp", "cmp", "cast", "const"]
            )
            a = int(self.rng.integers(len(pool)))
            f, lanes = pool[a]
            if kind in ("fp", "cmp"):
                same = [i for i, slot in enumerate(pool) if slot == (f, lanes)]
                b = int(self.rng.choice(same))
                op = (
                    "cmp" if kind == "cmp"
                    else str(self.rng.choice(["add", "sub", "mul"]))
                )
                ops.append(("fp", op, a, b))
                pool.append((f, lanes))
            elif kind == "cast":
                targets = [
                    g for g in range(len(FORMATS))
                    if g != f and lanes in lane_counts(FORMATS[g])
                ]
                g = int(self.rng.choice(targets))
                ops.append(("cast", a, g))
                pool.append((g, lanes))
            elif kind == "const":
                g = int(self.rng.integers(len(FORMATS)))
                width = int(self.rng.choice(lane_counts(FORMATS[g])))
                values = self.rng.uniform(-3.0, 3.0, width).tolist()
                ops.append(("const", g, values))
                pool.append((g, width))
            elif kind == "lane" and lanes > 1:
                start = int(self.rng.integers(lanes))
                count_ = 2 if lanes == 4 and start < 3 else 1
                ops.append(("lane", a, start, count_))
                pool.append((f, count_))
            elif kind == "store":
                ops.append(("store", a, self.n_stores, depth))
                self.n_stores += 1
        return ops


class Kernel:
    """Replays a :class:`Spec` on a builder with one loop form."""

    def __init__(self, spec: Spec, form: str, builder=ValueBuilder) -> None:
        self.spec = spec
        self.form = form
        self.b = builder("random")
        self.inputs = [
            self.b.alloc(f"in{f}", values, FORMATS[f])
            for f, values in spec.inputs.items()
        ]
        self.outs = {}

    def build(self):
        b, spec = self.b, self.spec
        regs: list = []
        self._emit(spec.outer, regs, ())
        self._level(0, (), regs)
        return b.program()

    def _level(self, depth, idx, regs):
        n, form = self.spec.nest[depth]
        pre, _ = self.spec.levels[depth]
        if form in "sw":
            indices = getattr(self.b, self.form)(n, soft=form == "w")
        else:
            indices = self.b.loop(n, soft=form == "S")
        for i in indices:
            local = list(regs)
            self._emit(pre, local, idx + (i,))
            if depth + 1 < len(self.spec.nest):
                self._level(depth + 1, idx + (i,), local)
                self._emit(self.spec.posts[depth], local, idx + (i,))

    def _emit(self, ops, regs, idx):
        b = self.b
        for op in ops:
            kind = op[0]
            if kind == "load":
                _, f, lanes, coefs, offset = op
                index = offset + sum(c * i for c, i in zip(coefs, idx))
                regs.append((b.load(self.inputs[f], index, lanes), f))
            elif kind == "fp":
                _, name, a, c = op
                (ra, f), (rc, _) = regs[a], regs[c]
                regs.append((b.fp(name, FORMATS[f], ra, rc), f))
            elif kind == "cast":
                _, a, g = op
                ra, f = regs[a]
                regs.append((b.cast(ra, FORMATS[f], FORMATS[g]), g))
            elif kind == "const":
                _, g, values = op
                reg = (
                    b.fconst(values[0], FORMATS[g]) if len(values) == 1
                    else b.vconst(values, FORMATS[g])
                )
                regs.append((reg, g))
            elif kind == "lane":
                _, a, start, count = op
                ra, f = regs[a]
                regs.append((b.select_lanes(ra, start, count), f))
            elif kind == "store":
                _, a, k, depth = op
                ra, f = regs[a]
                sizes = [n for n, _ in self.spec.nest[: depth + 1]]
                flat = 0
                for i, n in zip(idx, sizes):
                    flat = flat * n + i
                out = self.outs.get(k)
                if out is None:
                    out = self.outs[k] = b.zeros(
                        f"out{k}", max(int(np.prod(sizes)), 1) * ra.lanes,
                        FORMATS[f],
                    )
                b.store(out, flat * ra.lanes, ra)


def emitted(program, values=True):
    """Everything a build emits (and, from the oracle, computes), in
    comparable form, read through the expanding view."""
    stream = program.stream.expanded()
    out = {
        "rows": stream.rows.tobytes(),
        "srcs": list(stream.srcs),
        "n_regs": stream.n_regs,
        "ops": list(stream.ops),
        "formats": [
            None if f is None else (f.exp_bits, f.man_bits, f.name)
            for f in stream.formats
        ],
    }
    if values:
        out["arrays"] = {
            name: program.output(name).tobytes() for name in program.arrays
        }
    return out


def build(spec, form, backend, builder=ValueBuilder):
    with Session(backend=backend):
        return Kernel(spec, form, builder).build()


def nest_id(nest) -> str:
    """``3L-4s``: trip count and form of each level."""
    return "-".join(f"{n}{form}" for n, form in nest)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nest", NESTS, ids=nest_id)
def test_sweep_emits_what_loop_emits(nest, seed, backend):
    spec = Spec(1000 * seed + NESTS.index(nest), nest)
    looped = build(spec, "loop", backend)
    swept = build(spec, "sweep", backend)
    expected, actual = emitted(looped), emitted(swept)
    for key in expected:
        assert actual[key] == expected[key], key
    assert len(swept) == len(looped)
    # The oracle emits through the shipped builder and adds nothing.
    shipped = build(spec, "sweep", backend, KernelBuilder)
    assert emitted(shipped, values=False) == emitted(swept, values=False)


def test_specs_cover_the_formats_lanes_and_ops():
    """The drawn bodies exercise what the module docstring promises."""
    seen = set()
    for nest in NESTS:
        for seed in range(3):
            spec = Spec(1000 * seed + NESTS.index(nest), nest)
            for pre, _ in spec.levels:
                for op in pre:
                    if op[0] == "load":
                        seen.add(("load", op[1], op[2]))
                    else:
                        seen.add(op[0] if op[0] != "fp" else op[1])
            for post in spec.posts:
                seen.update(op[0] if op[0] != "fp" else op[1] for op in post)
    for f, fmt in enumerate(FORMATS):
        for lanes in lane_counts(fmt):
            assert ("load", f, lanes) in seen, (fmt, lanes)
    for what in ("add", "sub", "mul", "cmp", "cast", "const", "lane",
                 "store"):
        assert what in seen, what
    # Sweeps run as hardware and as software loops, each with trip
    # counts 0, 1 and more.
    for soft in (False, True):
        trips = {
            n for nest in NESTS for depth, (n, form) in enumerate(nest)
            if form == "s" and (depth >= HW_LOOP_LEVELS) == soft
        }
        assert {0, 1} < trips, soft
    # Soft sweeps at the two levels where a sweep would otherwise be a
    # hardware loop.
    assert {
        depth for nest in NESTS for depth, (_, form) in enumerate(nest)
        if form == "w"
    } == set(range(HW_LOOP_LEVELS))


# ----------------------------------------------------------------------
# The sweep rules
# ----------------------------------------------------------------------
def test_register_read_after_its_sweep_closes_raises():
    b = KernelBuilder("rule")
    x = b.alloc("x", np.arange(4.0), BINARY32)
    for i in b.sweep(4):
        v = b.load(x, i)
    with pytest.raises(ValueError, match="after it closed"):
        b.fp("add", BINARY32, v, v)
    # Also from a later sweep, and from the enclosing one.
    with pytest.raises(ValueError, match="after it closed"):
        for _ in b.sweep(2):
            b.fp("add", BINARY32, v, v)
    with pytest.raises(ValueError, match="after it closed"):
        for r in b.sweep(2):
            for c in b.sweep(2):
                inner = b.load(x, 2 * r + c)
            b.fp("add", BINARY32, inner, inner)


def test_sweep_loading_an_element_it_stores_raises():
    b = ValueBuilder("rule")
    x = b.alloc("x", np.arange(8.0), BINARY32)
    with pytest.raises(ValueError, match="loads an element of 'x'"):
        for i in b.sweep(4):
            v = b.load(x, i + 1)
            b.store(x, i, v)
    # Store first, load after: the same conflict.
    b = ValueBuilder("rule")
    x = b.alloc("x", np.arange(8.0), BINARY32)
    y = b.fconst(1.0, BINARY32)
    with pytest.raises(ValueError, match="loads an element of 'x'"):
        for i in b.sweep(4):
            b.store(x, 2 * i, y)
            b.load(x, 6 - 2 * i)


def test_sweep_storing_an_element_twice_raises():
    b = ValueBuilder("rule")
    out = b.zeros("out", 4, BINARY32)
    one = b.fconst(1.0, BINARY32)
    with pytest.raises(ValueError, match="stores an element of 'out' twice"):
        for _ in b.sweep(3):
            b.store(out, 0, one)
    b = ValueBuilder("rule")
    out = b.zeros("out", 8, BINARY32)
    one = b.fconst(1.0, BINARY32)
    with pytest.raises(ValueError, match="stores an element of 'out' twice"):
        for i in b.sweep(4):
            b.store(out, i, one)
            b.store(out, i + 1, one)


def test_disjoint_loads_and_stores_of_one_array_are_allowed():
    """Loading even and storing odd elements is independent work."""
    programs = []
    for form in ("loop", "sweep"):
        b = ValueBuilder("evens")
        x = b.alloc("x", np.arange(8.0), BINARY8)
        for i in getattr(b, form)(4):
            v = b.load(x, 2 * i)
            b.store(x, 2 * i + 1, b.fp("add", BINARY8, v, v))
        programs.append(emitted(b.program()))
    assert programs[0] == programs[1]
    assert np.frombuffer(programs[1]["arrays"]["x"]).tolist() == [
        0.0, 0.0, 2.0, 4.0, 4.0, 8.0, 6.0, 12.0,
    ]


def test_fp_to_int_casts_match_between_forms():
    """The array path of ``fcvt.w`` rounds and saturates like the
    scalar one, and gives +0 where rint gives -0."""
    values = [2.5, 3.5, -2.5, -0.25, 3e9, -3e9, np.inf, -np.inf, np.nan]
    outputs = []
    for form in ("loop", "sweep"):
        b = ValueBuilder("cvt")
        x = b.alloc("x", values, BINARY32)
        out = b.zeros("out", len(values), None)
        for i in getattr(b, form)(len(values)):
            b.store(out, i, b.cast(b.load(x, i), BINARY32, None))
        outputs.append(b.program().output("out").tobytes())
    assert outputs[0] == outputs[1]
    assert np.frombuffer(outputs[1]).tolist() == [
        2.0, 4.0, -2.0, 0.0, 2**31 - 1, -(2**31), 2**31 - 1, -(2**31),
        2**31 - 1,
    ]


def test_division_roots_and_fma_match_between_forms():
    """Division, square roots (of -0, negatives and NaN too), fused
    multiply-adds and int-to-FP casts: same stream, same bytes."""
    xs = [2.0, -0.0, -1.0, np.nan, 0.0, 9.0, np.inf, 1e-3]
    ys = [3.0, 2.0, -0.0, 1.0, 0.0, -4.0, 2.0, 7.0]
    outputs = []
    for form in ("loop", "sweep"):
        b = ValueBuilder("seq")
        x = b.alloc("x", xs, BINARY32)
        y = b.alloc("y", ys, BINARY32)
        h = b.alloc("h", xs[:4] + ys[:4], BINARY16)
        outs = [b.zeros(name, len(xs), BINARY32) for name in "qrsc"]
        packed = b.zeros("packed", len(xs), BINARY16)
        for i in getattr(b, form)(len(xs)):
            xi, yi = b.load(x, i), b.load(y, i)
            b.store(outs[0], i, b.fdiv(BINARY32, xi, yi))
            b.store(outs[1], i, b.fsqrt(BINARY32, xi))
            b.store(outs[2], i, b.fma(BINARY32, xi, yi, xi))
            b.store(outs[3], i, b.cast(b.li(i), None, BINARY32))
        for i in getattr(b, form)(len(xs) // 2):
            v = b.load(h, 2 * i, lanes=2)
            b.store(packed, 2 * i, b.fma(BINARY16, v, v, v))
        outputs.append(emitted(b.program()))
    assert outputs[0] == outputs[1]


def test_zero_trip_sweep_skips_its_body():
    b = KernelBuilder("empty")
    for _ in b.sweep(0):
        raise AssertionError("body ran")
    assert b.instruction_count == 0


def test_sweep_index_is_read_only_and_nests_broadcast():
    b = KernelBuilder("idx")
    seen = []
    for _ in b.loop(1):
        for r in b.sweep(2):
            for c in b.sweep(3):  # third loop level: a software loop
                seen.append((r + 10 * c).tolist())
                with pytest.raises(ValueError):
                    c += 1
    assert np.asarray(seen[0]).reshape(2, 3).tolist() == [
        [0, 10, 20], [1, 11, 21],
    ]
    kinds = [ins.kind for ins in b.program().instrs]
    assert kinds.count(Kind.LOOP_SETUP) == 4
    assert kinds.count(Kind.BRANCH) == 6
