"""App.partition: the data-parallel decomposition contract."""

import numpy as np
import pytest

from repro.apps import APP_CLASSES, make_app
from repro.apps.base import partition_range
from repro.core import BINARY16ALT
from repro.hardware import Kind
from tests.oracles import kernel_values

PARTITIONABLE = ("conv", "dwt", "knn", "jacobi")


class TestPartitionRange:
    def test_balanced_chunks_cover_the_range(self):
        chunks = [partition_range(10, 4, part) for part in range(4)]
        assert chunks == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_parts_than_work_leaves_empty_chunks(self):
        chunks = [partition_range(2, 4, part) for part in range(4)]
        assert chunks == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            partition_range(10, 0, 0)
        with pytest.raises(ValueError):
            partition_range(10, 2, 2)


class TestPartitionContract:
    def test_partitionable_flags(self):
        for name in PARTITIONABLE:
            assert APP_CLASSES[name].partitionable
        assert not APP_CLASSES["pca"].partitionable
        assert not APP_CLASSES["svm"].partitionable

    @pytest.mark.parametrize("app_name", tuple(APP_CLASSES))
    def test_single_core_partition_is_the_whole_kernel(self, app_name):
        """partition(1) must be build_program, instruction for
        instruction (the cluster's 1-core identity rests on this)."""
        app = make_app(app_name, "tiny")
        binding = app.baseline_binding()
        with kernel_values():
            whole = app.build_program(binding)
            [part] = app.partition(1, binding)
        assert part.name == whole.name
        assert len(part.instrs) == len(whole.instrs)
        for ours, theirs in zip(part.instrs, whole.instrs):
            assert ours.kind == theirs.kind
            assert ours.op == theirs.op
            assert ours.fmt == theirs.fmt
            assert ours.lanes == theirs.lanes
        assert np.array_equal(
            part.output(_output_name(app_name)),
            whole.output(_output_name(app_name)),
        )

    @pytest.mark.parametrize("app_name", PARTITIONABLE)
    def test_partitions_split_the_dominant_work(self, app_name):
        """Across 4 cores, every core carries FP work and the total FP
        operation count stays within the serial count plus per-core
        overheads (nothing is dropped, nothing big is duplicated)."""
        app = make_app(app_name, "tiny")
        binding = app.baseline_binding()
        serial_fp = _fp_count(app.build_program(binding))
        parts = app.partition(4, binding)
        assert len(parts) == 4
        per_core = [_fp_count(p) for p in parts]
        assert all(n > 0 for n in per_core)
        assert sum(per_core) >= serial_fp * 0.95
        assert max(per_core) < serial_fp

    def test_fallback_partition_idles_the_extra_cores(self):
        app = make_app("svm", "tiny")
        parts = app.partition(3, app.baseline_binding())
        assert len(parts) == 3
        assert len(parts[1].instrs) == 0 and len(parts[2].instrs) == 0

    @pytest.mark.parametrize("app_name", PARTITIONABLE)
    def test_more_cores_than_work_yields_truly_idle_cores(self, app_name):
        """A core with an empty band idles completely -- no prologue,
        no loop machinery -- so degenerate grid points don't inflate
        energy or contention."""
        app = make_app(app_name, "tiny")
        work = {
            "conv": 4,   # out_n rows
            "jacobi": 6,  # interior rows
            "dwt": 32,   # first-level output samples
            "knn": 48,   # training points
        }[app_name]
        n_cores = work + 2
        parts = app.partition(n_cores, app.baseline_binding())
        assert len(parts) == n_cores
        assert all(len(p.instrs) > 0 for p in parts[:work])
        assert all(len(p.instrs) == 0 for p in parts[work:])

    def test_invalid_core_count_rejected(self):
        app = make_app("conv", "tiny")
        with pytest.raises(ValueError):
            app.partition(0, app.baseline_binding())


class TestPartitionNumerics:
    def test_conv_row_bands_union_to_the_serial_output(self):
        app = make_app("conv", "tiny")
        binding = app.baseline_binding()
        binding["image"] = BINARY16ALT  # exercise the vector path too
        with kernel_values():
            serial = app.build_program(binding)
            parts = app.partition(4, binding)
        out_n = app.scale.conv_size - app.scale.conv_kernel + 1
        merged = np.zeros((out_n, out_n))
        for core, program in enumerate(parts):
            lo, hi = partition_range(out_n, 4, core)
            merged[lo:hi] = program.output("out").reshape(out_n, out_n)[lo:hi]
        assert np.array_equal(merged, serial.output("out").reshape(out_n, out_n))

    def test_knn_core_zero_merge_reproduces_the_serial_output(self):
        """Core 0's top-k runs over every core's distances (its view of
        the shared L1), so its output equals the serial one."""
        app = make_app("knn", "tiny")
        binding = app.baseline_binding()
        with kernel_values():
            serial = app.build_program(binding)
            parts = app.partition(4, binding)
        assert np.array_equal(parts[0].output("out"), serial.output("out"))
        assert np.array_equal(parts[0].output("dist"), serial.output("dist"))

    def test_knn_selection_runs_only_on_core_zero(self):
        app = make_app("knn", "tiny")
        parts = app.partition(4, app.baseline_binding())
        sqrt_counts = [
            sum(1 for i in p.instrs if i.kind == Kind.FP and i.op == "sqrt")
            for p in parts
        ]
        assert sqrt_counts[0] == app.scale.knn_k
        assert sqrt_counts[1:] == [0, 0, 0]


def _output_name(app_name):
    return {"dwt": "coeffs", "pca": "proj", "svm": "scores"}.get(
        app_name, "out"
    )


def _fp_count(program):
    return sum(
        instr.lanes for instr in program.instrs if instr.kind == Kind.FP
    )
