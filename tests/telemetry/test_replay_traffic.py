"""Replays put their traffic in the trace: the rows they time and the
rows they step.

A replay times the expanded stream (``instructions``) but walks only
what it steps (``stepped_rows``): a span's template until its state
repeats, a shared FPU group until its joint state does.  The
``platform.run`` and ``cluster.run`` spans record both, so the steady
state's reach is measured, not guessed.
"""

import json
import random

from repro import telemetry
from repro.apps import make_app
from repro.cluster import ClusterConfig, ClusterPlatform
from repro.core import BINARY16ALT
from repro.hardware import Program, VirtualPlatform
from repro.session import Session
from repro.tuning.variables import uniform_binding
from tests.hardware.test_columnar_random import random_stream


def spans_named(name: str) -> list[dict]:
    telemetry.flush()
    records = [
        json.loads(line)
        for line in telemetry.trace_path().read_text().splitlines()
        if line.strip()
    ]
    return [r["attrs"] for r in records
            if r["kind"] == "span" and r["name"] == name]


def test_shared_groups_step_a_fraction_of_what_they_time(tmp_path):
    app = make_app("jacobi", "paper")
    with Session(backend="fast"):
        programs = app.partition(
            4, uniform_binding(app, BINARY16ALT), 0, vectorize=True
        )
    telemetry.enable(export_dir=tmp_path)
    report = ClusterPlatform(ClusterConfig(4, 4)).run(programs, name="jacobi")
    (attrs,) = spans_named("cluster.run")
    assert attrs["cores"] == 4 and attrs["fpu_ratio"] == 4
    assert attrs["instructions"] == report.instructions
    assert attrs["skips"] > 0
    assert attrs["stepped_rows"] < attrs["instructions"] / 3


def test_a_hand_written_stream_steps_every_row(tmp_path):
    program = Program("hand", random_stream(random.Random(7), 300), {})
    telemetry.enable(export_dir=tmp_path)
    VirtualPlatform().run(program)
    ClusterPlatform(ClusterConfig(2, 2)).run([program, program])
    (single,) = spans_named("platform.run")
    assert single["stepped_rows"] == single["instructions"] == 300
    (cluster,) = spans_named("cluster.run")
    assert cluster["stepped_rows"] == cluster["instructions"] == 600
    assert cluster["skips"] == 0
