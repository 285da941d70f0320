"""The shared-FPU arbitration engine: identity, fairness, blocking."""

import pytest

from repro.apps import APP_NAMES, make_app
from repro.cluster import ClusterConfig
from repro.cluster import simulate_cluster_timing as replay_columns
from repro.core import BINARY32
from repro.hardware import (
    Instr,
    Kind,
    lower_instrs,
    simulate_program_timing,
    simulate_timing_columns,
)


def simulate_cluster_timing(streams, config, override=None):
    """Lower each core's stream and replay the cluster on columns."""
    return replay_columns(
        [lower_instrs(stream) for stream in streams], config, override
    )


def fp_stream(n, base=0, op="add"):
    """n independent scalar FP ops (no data dependencies)."""
    return [
        Instr(Kind.FP, dst=base + i, op=op, fmt=BINARY32) for i in range(n)
    ]


class TestSingleCoreIdentity:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_one_core_cluster_times_like_the_single_core_model(
        self, app_name
    ):
        app = make_app(app_name, "tiny")
        program = app.build_program(app.baseline_binding())
        [result] = replay_columns([program.columns()], ClusterConfig(1, 1))
        assert result.timing == simulate_program_timing(program)
        assert result.contention_stalls == 0

    def test_latency_override_matches_single_core(self):
        app = make_app("conv", "tiny")
        program = app.build_program(app.baseline_binding())
        override = {"binary32": 3}
        [result] = replay_columns(
            [program.columns()], ClusterConfig(1, 1), override
        )
        assert result.timing == simulate_program_timing(program, override)


class TestArbitration:
    def test_stream_count_must_match_core_count(self):
        with pytest.raises(ValueError):
            simulate_cluster_timing([[], []], ClusterConfig(4, 2))

    def test_private_fpus_never_contend(self):
        streams = [fp_stream(40, base=100 * c) for c in range(4)]
        results = simulate_cluster_timing(streams, ClusterConfig(4, 1))
        assert [r.contention_stalls for r in results] == [0, 0, 0, 0]
        solo = simulate_timing_columns(lower_instrs(streams[0]))
        assert all(r.timing.cycles == solo.cycles for r in results)

    @pytest.mark.parametrize("cores,ratio", [(2, 2), (4, 4), (8, 4)])
    def test_equal_streams_get_equal_contention(self, cores, ratio):
        """Round-robin fairness: equal streams spread their arbitration
        losses evenly -- within the one-cycle granularity of a single
        issue port, every core in a sharing group loses the same."""
        streams = [fp_stream(48, base=1000 * c) for c in range(cores)]
        results = simulate_cluster_timing(
            streams, ClusterConfig(cores, ratio)
        )
        group = min(ratio, cores)
        contention = [r.contention_stalls for r in results]
        assert max(contention) - min(contention) <= group - 1
        cycles = [r.timing.cycles for r in results]
        assert max(cycles) - min(cycles) <= group - 1

    def test_sharing_group_saturates_one_port(self):
        """Two cores on one FPU issue 2L ops over exactly 2L cycles."""
        length = 30
        streams = [fp_stream(length, base=1000 * c) for c in range(2)]
        results = simulate_cluster_timing(streams, ClusterConfig(2, 2))
        makespan = max(r.timing.cycles for r in results)
        # Last issue at cycle 2L-1; latency-2 writeback ends one later.
        assert makespan == 2 * length + 1

    def test_div_blocks_the_sharing_partner(self):
        """A sequential op on core 0 stalls core 1's pipelined stream."""
        div = [Instr(Kind.FP, dst=0, op="div", fmt=BINARY32)]
        adds = fp_stream(4, base=10)
        shared = simulate_cluster_timing(
            [div, list(adds)], ClusterConfig(2, 2)
        )
        private = simulate_cluster_timing(
            [div, list(adds)], ClusterConfig(2, 1)
        )
        assert shared[1].contention_stalls > 0
        assert private[1].contention_stalls == 0
        assert shared[1].timing.cycles > private[1].timing.cycles

    def test_idle_cores_finish_at_cycle_zero(self):
        results = simulate_cluster_timing(
            [fp_stream(5), [], []], ClusterConfig(3, 2)
        )
        assert results[1].timing.cycles == 0
        assert results[2].timing.cycles == 0
        assert results[1].timing.instructions == 0

    def test_contention_is_part_of_stall_cycles(self):
        streams = [fp_stream(20, base=1000 * c) for c in range(2)]
        results = simulate_cluster_timing(streams, ClusterConfig(2, 2))
        for result in results:
            assert result.timing.stall_cycles >= result.contention_stalls
