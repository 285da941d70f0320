"""Tests for the five-step transprecision programming flow."""

import json

import pytest

from repro.apps import make_app
from repro.flow import TransprecisionFlow
from repro.tuning import V2, precision_to_sqnr_db, sqnr_db
from tests.oracles import kernel_values


@pytest.fixture(scope="module")
def flow_result(tmp_path_factory):
    cache = tmp_path_factory.mktemp("tuning-cache")
    app = make_app("conv", "small")
    flow = TransprecisionFlow(app, V2, 1e-1, cache_dir=cache)
    return flow, flow.run(), cache


class TestTuningStep:
    def test_tuning_meets_target_on_numeric_form(self, flow_result):
        flow, result, _ = flow_result
        target = precision_to_sqnr_db(1e-1)
        assert all(v >= target for v in result.tuning.achieved_db.values())

    def test_storage_binding_uses_type_system_formats(self, flow_result):
        _, result, _ = flow_result
        allowed = {fmt.name for fmt in V2.formats}
        assert {fmt.name for fmt in result.binding.values()} <= allowed

    def test_cache_file_created_and_reused(self, flow_result):
        flow, result, cache = flow_result
        files = list(cache.glob("*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["program"] == "conv"
        assert payload["precision"] == result.tuning.precision

        # A second flow must load the cache, not re-tune.
        app = make_app("conv", "small")
        flow2 = TransprecisionFlow(app, V2, 1e-1, cache_dir=cache)
        reloaded = flow2.tune()
        assert reloaded.precision == result.tuning.precision
        assert reloaded.achieved_db == result.tuning.achieved_db

    def test_corrupt_binding_key_is_distinct_per_precision(self, tmp_path):
        app = make_app("conv", "small")
        a = TransprecisionFlow(app, V2, 1e-1, cache_dir=tmp_path)
        b = TransprecisionFlow(app, V2, 1e-2, cache_dir=tmp_path)
        assert a._cache_path() != b._cache_path()


class TestReports:
    def test_reports_present(self, flow_result):
        _, result, _ = flow_result
        assert result.baseline_report.cycles > 0
        assert result.tuned_report.cycles > 0
        assert result.baseline_report.program == "conv"

    def test_ratios_consistent(self, flow_result):
        _, result, _ = flow_result
        assert result.cycles_ratio == pytest.approx(
            result.tuned_report.cycles / result.baseline_report.cycles
        )
        assert result.memory_ratio <= 1.0
        assert result.energy_ratio <= 1.0

    def test_stats_collected(self, flow_result):
        _, result, _ = flow_result
        assert result.stats.total_arith_ops() > 0

    def test_kernel_output_meets_target(self, flow_result):
        flow, result, _ = flow_result
        app = make_app("conv", "small")
        with kernel_values():
            program = app.build_program(result.binding, 0, vectorize=True)
        ref = app.reference(0)
        # The platform's rounding order differs slightly from emulation;
        # allow a small margin below the tuner-validated target.
        assert sqnr_db(ref, program.output("out")) >= (
            precision_to_sqnr_db(1e-1) - 3.0
        )

    def test_no_cache_dir_still_works(self):
        app = make_app("dwt", "small")
        flow = TransprecisionFlow(app, V2, 1e-1, cache_dir=None)
        result = flow.run()
        assert result.tuned_report.cycles > 0


class TestStrategyCacheKeys:
    """Satellite regression: the tuning cache keys by strategy, so a
    cast-aware (or bisection) run of a grid point can never collide
    with -- and silently reuse -- a cached greedy result."""

    def test_default_strategy_keeps_legacy_cache_key(self, tmp_path):
        app = make_app("conv", "tiny")
        flow = TransprecisionFlow(app, V2, 1e-1, cache_dir=tmp_path)
        assert flow._cache_path().name == "conv-tiny-V2-0.1.json"

    def test_strategies_get_distinct_cache_files(self, tmp_path):
        app = make_app("conv", "tiny")
        paths = {
            strategy: TransprecisionFlow(
                app, V2, 1e-1, cache_dir=tmp_path, strategy=strategy
            )._cache_path()
            for strategy in ("greedy", "bisect", "cast_aware", "anneal")
        }
        assert len(set(paths.values())) == 4
        assert paths["cast_aware"].name == (
            "conv-tiny-V2-0.1-cast_aware.json"
        )

    def test_non_default_strategy_never_reuses_greedy_cache(self, tmp_path):
        app = make_app("conv", "tiny")
        greedy = TransprecisionFlow(app, V2, 1e-1, cache_dir=tmp_path)
        greedy_result = greedy.tune()
        assert len(list(tmp_path.glob("*.json"))) == 1

        bisect = TransprecisionFlow(
            make_app("conv", "tiny"), V2, 1e-1,
            cache_dir=tmp_path, strategy="bisect",
        )
        report = bisect.tune_report()
        # A fresh search ran (not a cache hit) and wrote its own file.
        assert report.cached is False
        assert len(list(tmp_path.glob("*.json"))) == 2

        # Each strategy reloads its own cached result afterwards.
        greedy_again = TransprecisionFlow(
            make_app("conv", "tiny"), V2, 1e-1, cache_dir=tmp_path
        ).tune_report()
        bisect_again = TransprecisionFlow(
            make_app("conv", "tiny"), V2, 1e-1,
            cache_dir=tmp_path, strategy="bisect",
        ).tune_report()
        assert greedy_again.cached and bisect_again.cached
        assert greedy_again.result == greedy_result
        assert bisect_again.result == report.result

    def test_session_default_strategy_drives_flow(self, tmp_path):
        from repro.session import Session

        session = Session(
            cache_dir=tmp_path, default_strategy="bisect"
        )
        flow = session.flow(make_app("conv", "tiny"), V2, 1e-1)
        assert flow.strategy_name == "bisect"
        assert "bisect" in flow._cache_path().name
        # An explicit strategy still wins over the session default.
        pinned = session.flow(
            make_app("conv", "tiny"), V2, 1e-1, strategy="greedy"
        )
        assert pinned.strategy_name == "greedy"

    def test_configured_unregistered_instance_refused(self, tmp_path):
        # A flow keeps only the strategy *name*; accepting a
        # differently configured instance of a registered name would
        # silently swap it for the registry singleton.
        from repro.tuning import AnnealingStrategy

        with pytest.raises(TypeError, match="resolve back"):
            TransprecisionFlow(
                make_app("conv", "tiny"), V2, 1e-1,
                cache_dir=tmp_path,
                strategy=AnnealingStrategy(seed=42),
            )
        # The registered singleton itself passes.
        from repro.tuning import resolve_strategy

        flow = TransprecisionFlow(
            make_app("conv", "tiny"), V2, 1e-1,
            cache_dir=tmp_path, strategy=resolve_strategy("anneal"),
        )
        assert flow.strategy_name == "anneal"

    def test_flow_result_records_strategy(self, tmp_path):
        flow = TransprecisionFlow(
            make_app("conv", "tiny"), V2, 1e-1,
            cache_dir=tmp_path, strategy="bisect",
        )
        result = flow.run()
        assert result.strategy == "bisect"
        rebuilt = type(result).from_payload(result.to_payload())
        assert rebuilt == result
        # Pre-strategy payloads decode as greedy.
        legacy = result.to_payload()
        del legacy["strategy"]
        assert type(result).from_payload(legacy).strategy == "greedy"
