"""Tests for the parallel experiment engine (ExperimentRunner)."""

import pytest

from repro.flow import FlowResult, TransprecisionFlow
from repro.apps import make_app
from repro.runner import ExperimentRunner, build_runner_spec
from repro.session import Session
from repro.tuning import V1, V2, V2_NO8, TypeSystem, type_system

APPS = ("conv", "knn")
PRECISIONS = (1e-1,)


def make_runner(tmp_path, jobs=1, subdir="a"):
    root = tmp_path / subdir
    return ExperimentRunner(
        session=Session(cache_dir=root / "tuning"),
        scale="tiny",
        store_dir=root / "store",
        jobs=jobs,
    )


def counter_triple(runner):
    """(memo_hits, store_hits, computed) -- the cache-hit accounting."""
    c = runner.counters
    return (c.memo_hits, c.store_hits, c.computed)


class TestSessionSpec:
    def test_round_trip(self, tmp_path):
        session = Session(backend="fast", cache_dir=tmp_path)
        rebuilt = Session.from_spec(session.spec())
        assert rebuilt.backend.name == "fast"
        assert rebuilt.cache_dir == tmp_path

    def test_spec_is_json_able(self, tmp_path):
        import json

        spec = Session(cache_dir=tmp_path).spec()
        assert json.loads(json.dumps(spec)) == spec

    def test_no_live_state_crosses(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        with session.collect():
            rebuilt = Session.from_spec(session.spec())
        assert rebuilt.context is not session.context
        assert rebuilt.context.collectors == []


class TestTypeSystemRegistry:
    def test_builtins_resolvable(self):
        assert type_system("V1") is V1
        assert type_system("v2") is V2
        assert type_system("V2no8") is V2_NO8

    def test_instances_pass_through(self):
        assert type_system(V2) is V2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            type_system("V9")

    def test_conflicting_registration_refused(self):
        from repro.tuning import register_type_system

        clone = TypeSystem("V1", V2.intervals)
        with pytest.raises(ValueError):
            register_type_system(clone)

    def test_reregistering_same_system_is_idempotent(self):
        from repro.tuning import register_type_system

        assert register_type_system(V1) is V1


class TestCacheAccounting:
    def test_cold_then_memo_then_store(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.flow("conv", V2, 1e-1)
        assert counter_triple(runner) == (0, 0, 1)
        runner.flow("conv", V2, 1e-1)  # in-memory memo
        assert counter_triple(runner) == (1, 0, 1)

        # A second runner over the same store: pure store hits.
        second = make_runner(tmp_path)
        second.flow("conv", V2, 1e-1)
        assert counter_triple(second) == (0, 1, 0)

    def test_run_accounts_per_spec(self, tmp_path):
        runner = make_runner(tmp_path)
        specs = runner.grid(APPS, [V2], PRECISIONS)
        runner.run(specs)
        assert runner.counters.computed == len(specs)
        runner.run(specs)
        assert runner.counters.memo_hits == len(specs)
        assert runner.counters.computed == len(specs)

    def test_distinct_grid_points_not_shared(self, tmp_path):
        runner = make_runner(tmp_path)
        a = runner.flow("conv", V2, 1e-1)
        b = runner.flow("conv", V1, 1e-1)
        assert a is not b
        assert runner.counters.computed == 2

    def test_report_jobs_reuse_stored_flow(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.flow("conv", V2, 1e-1)
        runner.report("castless", "conv", V2, 1e-1)
        # The report derived from the memoized flow: one extra compute,
        # no second flow run.
        assert runner.counters.computed == 2


class TestParallelExecution:
    def test_parallel_equals_serial_bit_identical(self, tmp_path):
        serial = make_runner(tmp_path, jobs=1, subdir="serial")
        parallel = make_runner(tmp_path, jobs=2, subdir="parallel")
        specs = serial.grid(APPS, [V2], PRECISIONS)
        out_serial = serial.run(specs)
        out_parallel = parallel.run(specs)
        assert parallel.counters.computed == len(specs)
        for spec in specs:
            assert out_serial[spec] == out_parallel[spec]

    def test_parallel_report_wave(self, tmp_path):
        runner = make_runner(tmp_path, jobs=2)
        specs = [
            runner.flow_spec("conv", V2, 1e-1),
            runner.report_spec("castless", "conv", V2, 1e-1),
            runner.report_spec("baseline", "conv"),
        ]
        results = runner.run(specs)
        assert isinstance(results[specs[0]], FlowResult)
        assert results[specs[1]].cycles > 0
        assert results[specs[2]].cycles > 0

    def test_parallel_run_is_resumable(self, tmp_path):
        first = make_runner(tmp_path, jobs=2)
        specs = first.grid(APPS, [V2], PRECISIONS)
        first.run(specs[:1])
        # A fresh engine finishes the grid: the already-stored job is a
        # hit, only the remainder computes.
        second = make_runner(tmp_path, jobs=2)
        second.run(specs)
        assert second.counters.store_hits == 1
        assert second.counters.computed == len(specs) - 1


class TestReportVariants:
    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
        return make_runner(tmp_path_factory.mktemp("variants"))

    def test_baseline_matches_direct_platform_run(self, runner):
        report = runner.report("baseline", "conv")
        app = make_app("conv", "tiny")
        with runner.session:
            program = app.build_program(
                app.baseline_binding(), 0, vectorize=False
            )
        assert report == runner.session.platform.run(program)

    def test_castless_strips_every_cast(self, runner):
        castless = runner.report("castless", "conv", V2, 1e-1)
        assert castless.total_casts() == 0
        tuned = runner.flow("conv", V2, 1e-1).tuned_report
        assert castless.energy_pj <= tuned.energy_pj + 1e-9

    def test_fast16_not_slower(self, runner):
        fast = runner.report("fast16", "conv", V2, 1e-1)
        tuned = runner.flow("conv", V2, 1e-1).tuned_report
        assert fast.cycles <= tuned.cycles

    def test_pca_manual_runs(self, runner):
        report = runner.report("pca_manual", "pca", V2, 1e-1)
        assert report.cycles > 0

    def test_unknown_variant_rejected(self, runner):
        with pytest.raises(KeyError):
            runner.report("warp_drive", "conv", V2, 1e-1)


class TestSerialPathUnchanged:
    def test_runner_flow_equals_direct_flow(self, tmp_path):
        """The store-backed path returns exactly what a plain
        TransprecisionFlow produces."""
        runner = make_runner(tmp_path)
        via_runner = runner.flow("conv", V2, 1e-1)
        direct = TransprecisionFlow(
            make_app("conv", "tiny"), V2, 1e-1, cache_dir=None
        ).run()
        assert via_runner == direct

    def test_store_read_back_equals_computed(self, tmp_path):
        runner = make_runner(tmp_path)
        computed = runner.flow("conv", V2, 1e-1)
        second = make_runner(tmp_path)
        assert second.flow("conv", V2, 1e-1) == computed


class TestCustomTypeSystems:
    def test_instance_registered_on_the_fly(self, tmp_path):
        """Handing the runner a TypeSystem *instance* must work even if
        nobody registered it: the spec keeps only the name, so the
        runner registers the instance as it builds the spec."""
        from repro.core import BINARY16, BINARY32

        custom = TypeSystem("Vtest16", ((11, BINARY16), (24, BINARY32)))
        runner = make_runner(tmp_path)
        flow = runner.flow("conv", custom, 1e-1)
        assert flow.type_system == "Vtest16"
        assert type_system("Vtest16") is custom
        allowed = {fmt.name for fmt in custom.formats}
        assert {fmt.name for fmt in flow.binding.values()} <= allowed

    def test_name_collision_raises_not_silently_swaps(self, tmp_path):
        """A custom system reusing a registered name must fail loudly
        instead of computing under the registered system's intervals."""
        impostor = TypeSystem("V2", V1.intervals)
        runner = make_runner(tmp_path)
        with pytest.raises(ValueError):
            runner.flow_spec("conv", impostor, 1e-1)

    def test_payload_round_trip(self):
        for ts in (V1, V2, V2_NO8):
            assert TypeSystem.from_payload(ts.to_payload()) == ts

    def test_worker_spec_ships_type_system_definitions(self, tmp_path):
        """Workers started via spawn have fresh registries: the runner
        spec must carry full definitions, not just names."""
        runner = make_runner(tmp_path)
        jobs = [
            runner.flow_spec("conv", V2, 1e-1),
            runner.report_spec("baseline", "conv"),
        ]
        shipped = build_runner_spec(
            runner.session, runner.cache_dir, runner.store, jobs
        )["type_systems"]
        assert [TypeSystem.from_payload(p) for p in shipped] == [V2]


class TestUnserializableEnvironments:
    def test_unregistered_backend_instance_refused_at_spec_time(
        self, tmp_path
    ):
        from repro.core.backend import ReferenceBackend

        class Rogue(ReferenceBackend):
            name = "rogue-unregistered"

        session = Session(backend=Rogue(), cache_dir=tmp_path)
        with pytest.raises(TypeError):
            session.spec()


class TestMissAccounting:
    def test_cold_run_counts_each_job_once(self, tmp_path):
        runner = make_runner(tmp_path)
        specs = runner.grid(APPS, [V2], PRECISIONS)
        runner.run(specs)
        # One store probe per cold job -- not two (run() proves the
        # miss; the compute path must not probe again).
        assert runner.store.misses == len(specs)
        assert runner.store.hits == 0


class TestTuningCacheSharing:
    def test_flow_jobs_populate_the_tuning_cache(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.flow("conv", V2, 1e-1)
        cached = list(runner.cache_dir.glob("*.json"))
        assert len(cached) == 1
        assert "conv-tiny-V2" in cached[0].name

    def test_no_temp_residue_in_tuning_cache(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.flow("conv", V2, 1e-1)
        assert not list(runner.cache_dir.glob("*.tmp"))
