"""Shared-FPU groups replay from their joint steady state, bit for bit.

The leader of a shared group (its first core with a non-empty stream)
stops at the start of every span iteration it runs through, at any
level, and when the group's joint state there repeats the one it met
``P`` iterations earlier, the engine adds whole periods at once
(:mod:`repro.cluster.engine`).  Every test here replays such groups
against the cycle-stepped per-``Instr`` loop of ``tests/oracles.py``,
which walks the expanded streams and knows nothing of spans or
periods, and asserts through ``stepped_rows`` that the skip path ran:
a shared core that never skips steps every row it times.

* Seeded random bodies of ``tests/hardware/test_sweep.py`` with nested
  swept levels -- hardware and soft, two and three deep, the innermost
  long enough to settle -- the outermost switchable level split over
  uneven trip counts (``n + 1`` on the first cores, ``n`` on the rest),
  with idle cores leading a group and inside one, in 8-core clusters
  of 1:2, 1:3 and 1:4 groups, with and without the latency override.
* Hand-made nests around the div/sqrt unit: every inner iteration
  blocks the shared FPU, and FP work that waits on the busy unit.
* A binary32 product still in flight where its core parks, read later
  by a store, under binary32 latencies 2, 6 and 9.
* A binary32 sum made before the nest and read in every cell, still in
  flight at the first boundaries, where the rest of the group's state
  already equals a later boundary's, with the cores starting their
  nests a cycle or two apart.
* The small-scale partitions of conv, jacobi, dwt and knn (dwt stores
  every row, so its cores step every one).

Replays broken on purpose fail here (each was tried): a joint state
without ``C mod group_size`` or without the FPU's horizon, a skip that
leaves the arbiter's parked cycles where they were, one that allows one
period more than the cores have room for, one that moves a core's
innermost iteration instead of its iteration at the leader's level,
liveness that drops the oldest live register (the in-flight product),
every register written in the template or the registers a nest reads
from before it, and an energy fold that multiplies a nested span's
energies instead of tiling them.
"""

import json

import numpy as np
import pytest

from repro.apps import make_app
from repro.cluster import ClusterConfig, ClusterPlatform
from repro.cluster.engine import simulate_cluster_timing
from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.hardware import KernelBuilder, Program
from repro.session import Session
from repro.tuning.variables import uniform_binding
from tests.hardware import test_sweep
from tests.hardware.test_sweep import Kernel, Spec, nest_id
from tests.oracles import cluster_report_legacy
from tests.oracles import simulate_cluster_timing as legacy_cluster_timing

OVERRIDES = (None, {"binary32": 3, "binary16": 1, "binary8": 2})

#: Nests whose innermost level runs long enough for a group to settle;
#: the first switchable level is the one split over the cores.
NESTS = (
    ((3, "s"), (16, "s")),
    ((2, "w"), (14, "s")),
    ((3, "s"), (12, "w")),
    ((2, "s"), (2, "s"), (14, "s")),
)


def idle() -> Program:
    return Program("idle", [], {})


def uneven(build, n: int) -> list:
    """Eight cores: idle, two with ``n + 1`` trips, three with ``n``,
    idle, ``n`` -- so 1:2, 1:3 and 1:4 groups each hold idle cores,
    uneven cores, or both."""
    more, less = build(n + 1), build(n)
    return [idle(), more, more, less, less, less, idle(), less]


def replay(programs, config, override=None):
    """The engine's replay, checked against the oracle's; returns the
    per-core results."""
    got = simulate_cluster_timing(
        [p.columns() for p in programs], config, override
    )
    want = legacy_cluster_timing(
        [list(p.instrs) for p in programs], config, override
    )
    assert [r.timing for r in got] == [r.timing for r in want]
    assert [r.timing.to_payload() for r in got] == [
        r.timing.to_payload() for r in want
    ]
    assert [r.contention_stalls for r in got] == [
        r.contention_stalls for r in want
    ]
    return got


def shared_rows(results, programs, config) -> tuple[int, int]:
    """Rows stepped and rows timed by the cores of shared groups."""
    stepped = timed = 0
    for fpu in range(config.n_fpus):
        cores = config.cores_of(fpu)
        if sum(1 for c in cores if len(programs[c])) > 1:
            stepped += sum(results[c].stepped_rows for c in cores)
            timed += sum(results[c].timing.instructions for c in cores)
    return stepped, timed


def assert_skipped(results, programs, config):
    stepped, timed = shared_rows(results, programs, config)
    assert sum(r.skips for r in results) > 0
    assert 0 < stepped < timed


# ----------------------------------------------------------------------
# The random sweep bodies
# ----------------------------------------------------------------------
def random_body(seed: int, nest, n: int) -> Program:
    """The body of ``Spec(seed, nest)`` with its first switchable level
    run ``n`` times, in the formats the FPU implements, on inputs long
    enough for the longer nests."""
    first = next(d for d, (_, form) in enumerate(nest) if form in "sw")
    nest = nest[:first] + ((n, nest[first][1]),) + nest[first + 1:]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            test_sweep, "FORMATS",
            (BINARY8, BINARY16, BINARY16ALT, BINARY32, BINARY8),
        )
        patch.setattr(test_sweep, "INPUT_SIZE", 128)
        return Kernel(Spec(seed, nest), "sweep", KernelBuilder).build()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nest", NESTS, ids=nest_id)
def test_random_nests_replay_like_the_oracle(nest, seed):
    first = next(d for d, (_, form) in enumerate(nest) if form in "sw")
    programs = uneven(
        lambda n: random_body(seed, nest, n), nest[first][0]
    )
    assert all(p.stream.spans[0].children for p in programs if len(p))
    for fpu_ratio in (2, 3, 4):
        config = ClusterConfig(8, fpu_ratio)
        for override in OVERRIDES:
            results = replay(programs, config, override)
            assert_skipped(results, programs, config)


# ----------------------------------------------------------------------
# Bodies that block the shared FPU
# ----------------------------------------------------------------------
def blocking(op: str, waits: bool, trips: int, inner: int = 24) -> Program:
    """A sweep of ``trips`` rows, each a sweep of ``inner`` cells whose
    every cell runs a div or a sqrt on the shared unit -- and, with
    ``waits``, FP work that the busy unit holds back."""
    b = KernelBuilder("blocking")
    x = b.alloc("x", np.ones(64), BINARY32)
    out = b.zeros("out", trips * inner, BINARY32)
    a = b.load(x, 0)
    for i in b.sweep(trips):
        v = b.load(x, i)
        for j in b.sweep(inner):
            w = b.load(x, i + j)
            s = b.fsqrt(BINARY32, w) if op == "sqrt" else b.fdiv(
                BINARY32, w, v
            )
            if waits:
                b.fp("mul", BINARY32, a, v)
            b.store(out, i * inner + j, b.fp("add", BINARY32, s, w))
    return b.program()


@pytest.mark.parametrize("waits", (False, True), ids=("alone", "waits"))
@pytest.mark.parametrize("op", ("div", "sqrt"))
def test_sequential_ops_block_the_shared_fpu(op, waits):
    programs = uneven(lambda n: blocking(op, waits, n), 3)
    for fpu_ratio in (2, 3, 4):
        config = ClusterConfig(8, fpu_ratio)
        for override in OVERRIDES:
            results = replay(programs, config, override)
            assert_skipped(results, programs, config)
            assert any(r.contention_stalls for r in results)


def in_flight(trips: int, inner: int = 16) -> Program:
    """A binary32 product still in flight where a core parks, read by a
    later store: binary8 work that does not need it issues first (under
    an override that makes binary32 slow).  The cells read nothing from
    outside the nest, so the product is the oldest register live at the
    binary8 rows."""
    b = KernelBuilder("in-flight")
    x = b.alloc("x", np.ones(64), BINARY32)
    y = b.alloc("y", np.ones(64), BINARY8)
    out = b.zeros("out", trips * inner, BINARY32)
    low = b.zeros("low", trips * inner, BINARY8)
    for i in b.sweep(trips):
        for j in b.sweep(inner):
            cell = i * inner + j
            p = b.fp("mul", BINARY32, b.load(x, i + j), b.load(x, i))
            h = b.load(y, i + j)
            q = b.fp("mul", BINARY8, h, h)
            b.store(low, cell, b.fp("add", BINARY8, q, h))
            b.store(out, cell, p)
    return b.program()


@pytest.mark.parametrize("latency", (2, 6, 9))
def test_registers_in_flight_move_with_a_skip(latency):
    programs = uneven(in_flight, 3)
    for fpu_ratio in (2, 3, 4):
        config = ClusterConfig(8, fpu_ratio)
        results = replay(
            programs, config, {"binary32": latency, "binary8": 1}
        )
        assert_skipped(results, programs, config)


#: One-cycle instructions per core between the pending sum and the
#: nest: the cores of a group start their nests a cycle or two apart.
FILLERS = (0, 2, 3, 1, 2, 1, 0, 3)


def pending_outer(trips: int, fillers: int, inner: int = 6) -> Program:
    """A binary32 sum made before the nest and read in every cell, by a
    store and by FP work; ``fillers`` one-cycle instructions, a second
    sum and two more come between.  Under a slow binary32 override the
    sum is still in flight at the first boundaries, while the rest of
    the group's state there already equals a later boundary's: only
    the sum's ready time tells the first period apart."""
    b = KernelBuilder("pending-outer")
    x = b.alloc("x", np.ones(64), BINARY32)
    y = b.alloc("y", np.ones(64), BINARY8)
    out = b.zeros("out", trips * inner, BINARY32)
    a = b.load(x, 0)
    pre = b.fp("add", BINARY32, a, a)
    for _ in range(fillers):
        b.li(0)
    b.fp("add", BINARY32, a, a)
    b.li(0)
    b.li(0)
    for i in b.sweep(trips):
        for j in b.sweep(inner, soft=True):
            cell = i * inner + j
            w = b.load(x, cell % 60)
            h = b.load(y, cell % 60)
            b.fp("mul", BINARY8, h, h)
            b.fp("mul", BINARY32, w, w)
            b.store(out, cell, pre)
            b.fsqrt(BINARY32, w)
            b.fp("add", BINARY32, w, pre)
            b.fp("mul", BINARY8, h, h)
    return b.program()


@pytest.mark.parametrize("latency", (16, 18))
def test_registers_from_before_the_nest_hold_back_a_skip(latency):
    trips = (0, 3, 3, 2, 2, 2, 0, 2)
    programs = [
        pending_outer(n, fillers) if n else idle()
        for n, fillers in zip(trips, FILLERS)
    ]
    for fpu_ratio in (2, 3, 4):
        config = ClusterConfig(8, fpu_ratio)
        results = replay(
            programs, config, {"binary32": latency, "binary8": 1}
        )
        assert_skipped(results, programs, config)


# ----------------------------------------------------------------------
# The partitioned apps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", (BINARY16ALT, BINARY8), ids=lambda f: f.name)
@pytest.mark.parametrize("app_name", ("conv", "jacobi", "dwt", "knn"))
def test_small_partitions_replay_like_the_oracle(app_name, fmt):
    app = make_app(app_name, "small")
    with Session(backend="fast"):
        programs = app.partition(4, uniform_binding(app, fmt), 0, True)
    for fpu_ratio in (2, 4):
        config = ClusterConfig(4, fpu_ratio)
        got = ClusterPlatform(config).run(programs, name=app_name)
        want = cluster_report_legacy(programs, config, name=app_name)
        assert json.dumps(got.to_payload()) == json.dumps(want.to_payload())
        results = simulate_cluster_timing(
            [p.columns() for p in programs], config
        )
        stepped, timed = shared_rows(results, programs, config)
        if all(p.stream.stored == len(p) for p in programs):
            # Every row stored (dwt): nothing to skip.
            assert stepped == timed and not any(r.skips for r in results)
        else:
            assert_skipped(results, programs, config)
