"""Cluster bit-identity gate: columnar cores equal the reference cores.

The cluster engine replays each FPU group on its own: a group with one
active core through the single-core pass, a shared group with every
core running ahead to its next FP instruction and the arbiter granting
FP issues only.  ``tests/oracles.py`` keeps the per-``Instr`` cores
under a cycle-stepped loop over all cores.  Every arbitration decision,
contention stall and core timing -- and therefore every
:class:`ClusterReport` payload -- must be byte-identical between the
two, across topologies, applications and latency overrides.
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


OVERRIDE = {"binary32": 9, "binary16": 2}


def assert_cluster_parity(streams, config, override=None):
    """Columnar cluster replay equals the oracle core for core."""
    legacy = legacy_cluster_timing(streams, config, override)
    columnar = simulate_cluster_timing(
        [lower_instrs(s) for s in streams], config, override
    )
    assert len(columnar) == len(legacy) == config.n_cores
    for col, leg in zip(columnar, legacy):
        assert col.timing == leg.timing
        assert col.timing.to_payload() == leg.timing.to_payload()
        assert list(col.timing.cycles_by_class) == list(
            leg.timing.cycles_by_class
        )
        assert col.contention_stalls == leg.contention_stalls
    return columnar


class TestColumnarCores:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_streams_contend_identically(self, seed):
        """Any core count up to 8, ratios 1-4 (uneven last groups
        included), idle cores anywhere, with and without the override."""
        rng = random.Random(1000 + seed)
        n_cores = rng.randrange(1, 9)
        config = ClusterConfig(
            n_cores=n_cores, fpu_ratio=rng.randrange(1, 5)
        )
        streams = [
            [] if rng.random() < 0.2
            else random_stream(rng, rng.randrange(5, 200))
            for _ in range(n_cores)
        ]
        override = OVERRIDE if seed % 2 else None
        assert_cluster_parity(streams, config, override)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "mode", [{"reuse": True}, {"orphans": True}], ids=["reuse", "orphans"]
    )
    def test_register_reuse_and_orphan_reads(self, seed, mode):
        """Overwritten producers and never-written sources (a
        cast-stripped stream) in shared groups."""
        rng = random.Random(2000 + seed)
        streams = [
            random_stream(rng, rng.randrange(5, 200), **mode)
            for _ in range(4)
        ]
        override = OVERRIDE if seed % 2 else None
        assert_cluster_parity(streams, ClusterConfig(4, 4), override)
        assert_cluster_parity(streams, ClusterConfig(4, 2), override)

    @pytest.mark.parametrize("override", [None, OVERRIDE])
    def test_uneven_groups(self, override):
        """8 cores at 1:3: groups of 3, 3 and 2 cores."""
        rng = random.Random(41)
        config = ClusterConfig(n_cores=8, fpu_ratio=3)
        assert [len(config.cores_of(f)) for f in range(config.n_fpus)] == [
            3, 3, 2,
        ]
        streams = [random_stream(rng, 150) for _ in range(8)]
        results = assert_cluster_parity(streams, config, override)
        assert all(r.contention_stalls > 0 for r in results)

    def test_idle_cores_inside_a_shared_group(self):
        rng = random.Random(42)
        config = ClusterConfig(n_cores=4, fpu_ratio=4)
        streams = [random_stream(rng, 120), [], random_stream(rng, 120), []]
        results = assert_cluster_parity(streams, config, OVERRIDE)
        assert results[1].timing.cycles == results[3].timing.cycles == 0
        assert results[0].contention_stalls + results[2].contention_stalls

    def test_group_with_one_active_core(self):
        """An FPU shared with idle cores only is private: the active
        core times exactly as on a single core, with no contention."""
        rng = random.Random(43)
        config = ClusterConfig(n_cores=4, fpu_ratio=2)
        streams = [
            random_stream(rng, 150),
            [],
            random_stream(rng, 150),
            random_stream(rng, 150),
        ]
        results = assert_cluster_parity(streams, config, OVERRIDE)
        assert results[0].contention_stalls == 0
        assert results[0].timing == simulate_timing(streams[0], OVERRIDE)

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
        views = (columns.latencies(None), columns.srcs_list, columns.dst_list)
        before = tuple(list(view) for view in views)
        config = ClusterConfig(n_cores=2, fpu_ratio=2)
        first = simulate_cluster_timing([columns, columns], config)
        assert (
            columns.latencies(None), columns.srcs_list, columns.dst_list
        ) == before
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
