"""The emitted stream buffer: lazy ``Instr`` view, interning, cast strip.

A built program keeps its stream as flat int64 rows
(:class:`repro.hardware.columnar.InstrStream`).  These tests pin the
three ways back out of that buffer -- the lazy ``program.instrs`` view,
the lowered columns and the cast-stripped copy -- against each other,
and the format interning the report counters depend on.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.core import BINARY8, BINARY16ALT, BINARY32, FPFormat
from repro.hardware import KernelBuilder, Kind, Program, VirtualPlatform
from repro.hardware import lower_instrs
from repro.hardware.columnar import fp_cast_counters_columns, lower_stream
from repro.runner.jobs import strip_casts

COLUMNS = (
    "kind", "dst", "op_id", "fmt_id", "src_fmt_id", "lanes", "width",
    "taken", "consumed", "cls_id", "fp_flag", "bits_by_fmt",
)


def fmt_key(fmt):
    return None if fmt is None else (fmt.exp_bits, fmt.man_bits, fmt.name)


def fields(ins):
    return (
        ins.kind, ins.dst, tuple(ins.srcs), ins.op, fmt_key(ins.fmt),
        fmt_key(ins.src_fmt), ins.lanes, ins.width, bool(ins.taken),
    )


def row(cols, i):
    """Instruction ``i`` as read straight from the lowered columns."""
    dst = int(cols.dst[i])
    return (
        Kind(int(cols.kind[i])), None if dst < 0 else dst,
        tuple(cols.srcs_list[i]), cols.ops[cols.op_id[i]],
        fmt_key(cols.formats[cols.fmt_id[i]]),
        fmt_key(cols.formats[cols.src_fmt_id[i]]),
        int(cols.lanes[i]), int(cols.width[i]), bool(cols.taken[i]),
    )


def assert_columns_equal(a, b):
    assert a.n == b.n
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.ops == b.ops
    assert [fmt_key(f) for f in a.formats] == [fmt_key(f) for f in b.formats]
    assert a.dst_list == b.dst_list
    assert list(a.srcs_list) == list(b.srcs_list)
    assert a.n_regs == b.n_regs


def mixed_knn():
    """knn with a mixed binding: casts, vectors, branches, 3 formats."""
    app = make_app("knn", "tiny")
    binding = {spec.name: BINARY8 for spec in app.variables()}
    binding["dist"] = BINARY16ALT
    return app.build_program(binding, 0, vectorize=True)


@pytest.fixture(scope="module")
def program():
    program = mixed_knn()
    kinds = {ins.kind for ins in program.instrs}
    assert {Kind.CAST, Kind.BRANCH, Kind.FP, Kind.STORE} <= kinds
    assert any(ins.lanes > 1 for ins in program.instrs)
    assert len(program.columns().formats) == 4
    return program


class TestLazyView:
    def test_len_never_lowers(self):
        program = mixed_knn()
        assert len(program.instrs) == len(program) > 0
        assert program._columns is None

    def test_iteration_relowers_to_the_same_columns(self, program):
        assert_columns_equal(
            lower_stream(program.stream.expanded()),
            lower_instrs(list(program.instrs)),
        )

    def test_indices_and_slices_match_columns(self, program):
        cols = lower_stream(program.stream.expanded())
        n = len(program.instrs)
        view = program.instrs
        for i in (0, 1, n // 2, n - 1, -1, -2, -n):
            assert fields(view[i]) == row(cols, i % n)
        for piece in (slice(3, 40), slice(-25, None), slice(None, None, 7),
                      slice(40, 3), slice(n - 5, n + 50), slice(5, -5, 3)):
            expected = [row(cols, i) for i in range(n)[piece]]
            assert [fields(ins) for ins in view[piece]] == expected
        assert [fields(ins) for ins in view] == [
            row(cols, i) for i in range(n)
        ]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                view[bad]

    def test_view_is_read_only(self, program):
        with pytest.raises((AttributeError, TypeError)):
            program.instrs.append(program.instrs[0])
        with pytest.raises(TypeError):
            program.instrs[0] = program.instrs[1]


class TestInterning:
    def test_equal_formats_with_different_names_stay_apart(self):
        anon = FPFormat(8, 23)
        assert anon == BINARY32
        b = KernelBuilder("names")
        x = b.fconst(1.5, BINARY32)
        y = b.fconst(2.5, anon)
        b.fp("add", anon, x, y)
        b.fp("mul", BINARY32, x, y)
        cols = b.program().columns()
        assert [fmt_key(f) for f in cols.formats] == [
            None, fmt_key(BINARY32), fmt_key(anon),
        ]
        fp, _ = fp_cast_counters_columns(cols)
        assert fp == {("", "add", 1): 1, ("binary32", "mul", 1): 1}

    def test_formats_dropped_mid_build_keep_their_ids(self):
        # Temporary formats die right after use, so a later one may
        # reuse an earlier one's id: interning must not confuse them.
        b = KernelBuilder("churn")
        one = b.fconst(1.0, BINARY32)
        expected = []
        for i in range(60):
            fmt = FPFormat(5 + i % 2, 2 + i % 3, name=f"t{i % 2}")
            b.fp("add", fmt, one, one)
            expected.append(fmt_key(fmt))
            del fmt
        program = b.program()
        emitted = [fmt_key(ins.fmt) for ins in program.instrs][1:]
        assert emitted == expected
        cols = program.columns()
        assert len(cols.formats) == 1 + 1 + len(set(expected))
        assert [row(cols, i)[4] for i in range(1, cols.n)] == expected

    def test_hand_written_stream_interns_in_first_use_order(self, program):
        instrs = list(program.instrs)
        cols = lower_instrs(instrs)
        first_use = [None]
        for ins in instrs:
            for fmt in (ins.fmt, ins.src_fmt):
                if fmt_key(fmt) not in [fmt_key(f) for f in first_use]:
                    first_use.append(fmt)
        assert [fmt_key(f) for f in cols.formats] == [
            fmt_key(f) for f in first_use
        ]


class TestStripCasts:
    def test_matches_filtering_the_instr_list(self, program):
        stripped = strip_casts(program)
        expected = Program(
            program.name,
            [ins for ins in program.instrs if ins.kind != Kind.CAST],
            program.arrays,
        )
        assert len(stripped) == len(expected) < len(program)
        assert [fields(i) for i in stripped.instrs] == [
            fields(i) for i in expected.instrs
        ]
        assert (
            VirtualPlatform().run(stripped).to_payload()
            == VirtualPlatform().run(expected).to_payload()
        )
        assert stripped.arrays is program.arrays

    def test_leaves_the_source_program_alone(self):
        program = mixed_knn()
        before = [fields(ins) for ins in program.instrs]
        strip_casts(program)
        assert [fields(ins) for ins in program.instrs] == before
        assert program._columns is None
