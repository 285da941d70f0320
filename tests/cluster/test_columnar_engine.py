"""Cluster bit-identity gate: columnar cores equal the reference cores.

The cluster engine's wave loop arbitrates shared FPUs per cycle, with
each core walking its pre-lowered columns.  ``tests/oracles.py`` keeps
the per-``Instr`` cores under their own copy of the same loop.  Every
arbitration decision, contention stall and core timing -- and therefore
every :class:`ClusterReport` payload -- must be byte-identical between
the two, across topologies, applications and latency overrides.
"""

import json
import random

import pytest

from repro.apps import APP_NAMES, make_app
from repro.cluster import ClusterConfig, ClusterPlatform
from repro.cluster.engine import simulate_cluster_timing
from repro.hardware import lower_instrs, simulate_timing_columns

from tests.hardware.test_columnar_random import random_stream
from tests.oracles import cluster_report_legacy, simulate_timing
from tests.oracles import simulate_cluster_timing as legacy_cluster_timing

TOPOLOGIES = ((1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (8, 4))


def run_both(app_name, n_cores, fpu_ratio, override=None):
    app = make_app(app_name, "tiny")
    binding = app.baseline_binding()
    config = ClusterConfig(n_cores=n_cores, fpu_ratio=fpu_ratio)
    platform = ClusterPlatform(config, fp_latency_override=override)
    columnar = platform.run_app(app, binding)
    serial_cycles = None
    if n_cores > 1:
        serial = app.build_program(binding)
        serial_cycles = simulate_timing(serial.instrs, override).cycles
    legacy = cluster_report_legacy(
        app.partition(n_cores, binding),
        config,
        override,
        name=app.name,
        serial_cycles=serial_cycles,
    )
    return columnar, legacy


def rendered(report):
    """The report's JSON bytes: payload equality down to key order."""
    return json.dumps(report.to_payload())


class TestClusterReportParity:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_every_app_shared_fpu(self, app_name):
        columnar, legacy = run_both(app_name, 4, 4)
        assert rendered(columnar) == rendered(legacy)

    @pytest.mark.parametrize("n_cores,fpu_ratio", TOPOLOGIES)
    def test_every_topology(self, n_cores, fpu_ratio):
        columnar, legacy = run_both("jacobi", n_cores, fpu_ratio)
        assert rendered(columnar) == rendered(legacy)
        assert columnar.contention_stalls == legacy.contention_stalls
        assert columnar.cycles == legacy.cycles

    def test_latency_override(self):
        columnar, legacy = run_both(
            "knn", 4, 4, override={"binary32": 9, "binary16": 2}
        )
        assert rendered(columnar) == rendered(legacy)

    def test_one_core_cluster_is_single_core(self):
        """A 1-core cluster must still equal ``VirtualPlatform.run``."""
        from repro.hardware import VirtualPlatform

        app = make_app("conv", "tiny")
        program = app.build_program(app.baseline_binding())
        cluster = ClusterPlatform(ClusterConfig(n_cores=1))
        report = cluster.run([program]).cores[0]
        single = VirtualPlatform().run(program)
        assert report.to_payload() == single.to_payload()


class TestColumnarCores:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_contend_identically(self, seed):
        rng = random.Random(1000 + seed)
        n_cores = rng.choice((2, 4, 8))
        config = ClusterConfig(
            n_cores=n_cores, fpu_ratio=rng.choice((2, 4))
        )
        streams = [
            random_stream(rng, rng.randrange(5, 200))
            for _ in range(n_cores)
        ]
        legacy = legacy_cluster_timing(streams, config)
        columnar = simulate_cluster_timing(
            [lower_instrs(s) for s in streams], config
        )
        for col, leg in zip(columnar, legacy):
            assert col.timing == leg.timing
            assert col.timing.to_payload() == leg.timing.to_payload()
            assert col.contention_stalls == leg.contention_stalls

    def test_idle_core(self):
        config = ClusterConfig(n_cores=2, fpu_ratio=2)
        streams = [random_stream(random.Random(7), 50), []]
        legacy = legacy_cluster_timing(streams, config)
        columnar = simulate_cluster_timing(
            [lower_instrs(s) for s in streams], config
        )
        assert columnar[1].timing == legacy[1].timing
        assert columnar[1].timing.cycles == 0
        assert columnar[0].timing == legacy[0].timing

    @pytest.mark.parametrize("fpu_ratio", [1, 2])
    def test_one_columns_object_on_every_core(self, fpu_ratio):
        """Cores replaying the same lowered stream share its memoized
        views; no core's progress may leak into another's."""
        stream = random_stream(random.Random(31), 120)
        config = ClusterConfig(n_cores=4, fpu_ratio=fpu_ratio)
        shared = lower_instrs(stream)
        together = simulate_cluster_timing([shared] * 4, config)
        apart = simulate_cluster_timing(
            [lower_instrs(stream) for _ in range(4)], config
        )
        legacy = legacy_cluster_timing([stream] * 4, config)
        for one, other, leg in zip(together, apart, legacy):
            assert one.timing == other.timing == leg.timing
            assert one.contention_stalls == other.contention_stalls
            assert one.contention_stalls == leg.contention_stalls

    def test_replay_leaves_columns_reusable(self):
        """A cluster replay does not mutate the cached views a later
        single-core or cluster replay of the same columns reads."""
        stream = random_stream(random.Random(32), 150)
        columns = lower_instrs(stream)
        lat, srcs, flags = columns.prepared(None)
        before = (list(lat), list(srcs), list(flags))
        config = ClusterConfig(n_cores=2, fpu_ratio=2)
        first = simulate_cluster_timing([columns, columns], config)
        assert columns.prepared(None) == before
        assert simulate_timing_columns(columns) == simulate_timing(stream)
        second = simulate_cluster_timing([columns, columns], config)
        assert [r.timing for r in second] == [r.timing for r in first]
        assert [r.contention_stalls for r in second] == [
            r.contention_stalls for r in first
        ]

    def test_columns_stream_count_mismatch(self):
        config = ClusterConfig(n_cores=2, fpu_ratio=2)
        with pytest.raises(ValueError):
            simulate_cluster_timing([lower_instrs([])], config)
