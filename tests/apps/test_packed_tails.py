"""Packed kernels build for every row length, not only multiples of 4.

knn's distance rows, svm's dot products and score sums, and conv's
filter rows split into SIMD blocks with :func:`repro.apps.base.lane_blocks`:
full blocks of the region's lane count, then blocks of 2 and 1, and a
block narrower than the packed accumulator reduces into the scalar one.
Most row lengths here leave tails of 2 or 3 lanes, which a plain
``min(lanes, rest)`` split would load as unsupported or mismatched
packed registers.  Each such shape must build through the value oracle,
replay to the oracle's timing, and, for knn, rank exactly the distances
its kernel stores.
"""

import dataclasses

import pytest

from repro.apps import make_app
from repro.apps.base import lane_blocks
from repro.apps.data import SCALES
from repro.core import BINARY8, BINARY16, BINARY16ALT, BINARY32
from repro.hardware import VirtualPlatform
from tests.oracles import kernel_values, simulate_timing

#: (app, scale field, values): row lengths that are no multiple of 4,
#: most of them leaving a 2- or 3-lane tail.
SHAPES = (
    ("knn", "knn_dims", (3, 6, 7, 10)),
    ("svm", "svm_dims", (6, 7, 10)),
    ("svm", "svm_vectors", (13, 14, 15)),
    ("conv", "conv_kernel", (2, 3, 7)),
)
CASES = [
    (app, field, value)
    for app, field, values in SHAPES
    for value in values
]
FORMATS = (BINARY8, BINARY16, BINARY16ALT, BINARY32)


def test_lane_blocks():
    assert lane_blocks(11, 4) == [(0, 4), (4, 4), (8, 2), (10, 1)]
    assert lane_blocks(7, 4) == [(0, 4), (4, 2), (6, 1)]
    assert lane_blocks(3, 4) == [(0, 2), (2, 1)]
    assert lane_blocks(5, 2) == [(0, 2), (2, 2), (4, 1)]
    assert lane_blocks(3, 1) == [(0, 1), (1, 1), (2, 1)]
    assert lane_blocks(0, 4) == []


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_shipped_scales_split_as_before(scale):
    """At the shipped sizes the blocks are the split the kernels made
    before (``min(lanes, rest)`` at a time), so their streams are
    unchanged."""
    s = SCALES[scale]
    for length in (s.knn_dims, s.svm_dims, s.svm_vectors, s.conv_kernel):
        for lanes in (1, 2, 4):
            before, col = [], 0
            while col < length:
                before.append((col, min(lanes, length - col)))
                col += before[-1][1]
            assert lane_blocks(length, lanes) == before, (length, lanes)


@pytest.mark.parametrize("app_name,field,value", CASES)
def test_tail_shapes_build_and_replay(app_name, field, value):
    app = make_app(app_name, dataclasses.replace(SCALES["tiny"],
                                                 **{field: value}))
    for fmt in FORMATS:
        binding = {spec.name: fmt for spec in app.variables()}
        with kernel_values():
            program = app.build_program(binding, 0, vectorize=True)
        report = VirtualPlatform().run(program)
        assert report.timing == simulate_timing(list(program.instrs))
        if app_name == "knn":
            got = app.kernel_distances(binding, 0, vectorize=True)
            assert got.tobytes() == program.output("dist").tobytes()


def test_tail_shapes_pack():
    """The binary8 builds do run packed, tails included."""
    for app_name, field, value in CASES:
        app = make_app(app_name, dataclasses.replace(SCALES["tiny"],
                                                     **{field: value}))
        binding = {spec.name: BINARY8 for spec in app.variables()}
        lanes = {ins.lanes for ins in app.build_program(binding).instrs}
        assert 2 in lanes or 4 in lanes, (app_name, field, value)
