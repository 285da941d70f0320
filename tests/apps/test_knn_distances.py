"""knn's ``kernel_distances`` equals the kernel's ``dist`` array, bit for bit.

knn's kernel ranks its distances with data-dependent branches, and the
builder computes no values, so the app computes the distances its
top-k selection compares with numpy, in the kernel's operation order
(:meth:`KnnApp.kernel_distances`).  The value oracle
(:func:`tests.oracles.kernel_values`) builds the kernel and computes
what it stores in ``dist``; the two must agree byte for byte.

The sample covers 40 of the 64 train/query/dist combinations of the
four FPU formats (the four uniform ones and 36 seeded others), with
vectorization on and off, on both backends, at the tiny and small
scales, and the five uniform bindings at paper scale.  A partitioned
core 0 must still output the serial ``dist`` and ``out``.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.base import partition_range
from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.session import Session
from tests.oracles import kernel_values

FORMATS = (BINARY8, BINARY16, BINARY16ALT, BINARY32)
BACKENDS = ("fast", "reference")
N_MIXED = 40


def mixed_bindings():
    """40 distinct (train, query, dist) combinations: the four uniform
    ones, so every lane count is drawn, and 36 seeded others; ``values``
    cycles through the formats too."""
    combos = len(FORMATS) ** 3
    uniform = [f * 21 for f in range(len(FORMATS))]  # f*16 + f*4 + f
    others = np.setdiff1d(np.arange(combos), uniform)
    rng = np.random.default_rng(21)
    picks = uniform + rng.choice(
        others, N_MIXED - len(uniform), replace=False
    ).tolist()
    bindings = []
    for n, pick in enumerate(picks):
        train, query, dist = (
            FORMATS[pick // 16], FORMATS[pick // 4 % 4], FORMATS[pick % 4]
        )
        bindings.append({
            "train": train, "values": FORMATS[n % 4], "query": query,
            "dist": dist,
        })
    return bindings


MIXED = mixed_bindings()

#: (label, uniform format, vectorize), as the golden digests build them.
UNIFORM = (
    ("binary32-scalar", BINARY32, False),
    ("binary32", BINARY32, True),
    ("binary16alt", BINARY16ALT, True),
    ("binary16", BINARY16, True),
    ("binary8", BINARY8, True),
)


def assert_distances_match(app, binding, input_id, vectorize):
    with kernel_values():
        program = app.build_program(binding, input_id, vectorize)
    want = program.output("dist")
    got = app.kernel_distances(binding, input_id, vectorize)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), binding


def test_mixed_sample_covers_the_formats():
    assert len({tuple(b[v].name for v in ("train", "query", "dist"))
                for b in MIXED}) == N_MIXED
    for var in ("train", "query", "dist"):
        assert {b[var] for b in MIXED} == set(FORMATS), var
    # Both packed and scalar regions, at every lane count.
    regions = {
        max(b["train"].bits, b["query"].bits, b["dist"].bits) for b in MIXED
    }
    assert regions == {8, 16, 32}


@pytest.mark.parametrize("scale", ("tiny", "small"))
@pytest.mark.parametrize("index", range(N_MIXED))
def test_mixed_binding_distances_match_the_kernel(scale, index):
    app = make_app("knn", scale)
    binding = MIXED[index]
    for backend in BACKENDS:
        with Session(backend=backend):
            for vectorize in (True, False):
                assert_distances_match(
                    app, binding, index % app.num_inputs, vectorize
                )


@pytest.mark.parametrize("label,fmt,vectorize", UNIFORM,
                         ids=[u[0] for u in UNIFORM])
def test_paper_uniform_distances_match_the_kernel(label, fmt, vectorize):
    app = make_app("knn", "paper")
    binding = {spec.name: fmt for spec in app.variables()}
    with Session(backend="fast"):
        assert_distances_match(app, binding, 0, vectorize)


@pytest.mark.parametrize("cores,index", ((2, 7), (4, 19), (8, 0)))
def test_partitioned_core_zero_outputs_the_serial_result(cores, index):
    """Core 0 starts from every core's distances and ranks them, so it
    outputs the serial ``dist`` and ``out``; every other core stores
    its own chunk of ``dist`` and leaves the rest at zero."""
    app = make_app("knn", "small")
    binding = MIXED[index]
    with kernel_values():
        serial = app.build_program(binding, 0, True)
        parts = app.partition(cores, binding, 0, True)
    for name in ("dist", "out"):
        assert parts[0].output(name).tobytes() == (
            serial.output(name).tobytes()
        ), name
    full = serial.output("dist")
    for core, program in enumerate(parts[1:], start=1):
        lo, hi = partition_range(len(full), cores, core)
        dist = program.output("dist")
        assert dist[lo:hi].tobytes() == full[lo:hi].tobytes()
        assert not np.concatenate([dist[:lo], dist[hi:]]).any()
