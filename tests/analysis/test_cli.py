"""Tests for the command-line interface."""

import pytest

from repro import cli, faults
from repro.cli import main
from repro.runner import STORE_VERSION, JobSpec, ResultStore

from tests.runner.test_store_shard import plant_legacy_flat


class TestStaticCommands:
    def test_formats(self, capsys):
        assert main(["formats"]) == 0
        out = capsys.readouterr().out
        assert "binary16alt" in out
        assert "binary8" in out

    def test_fpu(self, capsys):
        assert main(["fpu"]) == 0
        out = capsys.readouterr().out
        assert "slice16" in out
        assert "1 cycle" in out

    def test_multiple_commands(self, capsys):
        assert main(["formats", "fpu"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out and "Fig. 3" in out


class TestDriverCommands:
    def test_motivation_small(self, capsys, tmp_path):
        code = main(
            ["motivation", "--scale", "small", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert "fleet avg" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["fig99", "static"])
    def test_unknown_experiment_rejected(self, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["formats", "--scale", "huge"])

    def test_engine_flag_rejected(self, capsys):
        # One replay engine ships: there is no engine to select.
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--engine", "legacy"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


class TestBackendFlag:
    def test_fast_backend_runs(self, capsys, tmp_path):
        code = main(
            [
                "motivation",
                "--scale",
                "small",
                "--cache-dir",
                str(tmp_path),
                "--backend",
                "fast",
            ]
        )
        assert code == 0
        assert "fleet avg" in capsys.readouterr().out

    def test_backend_choices_match_registry(self):
        from repro.core import available_backends

        assert available_backends() == ("fast", "reference")

    def test_no_import_adds_a_backend(self):
        import importlib
        import pkgutil

        import repro
        from repro.core import available_backends

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith(".__main__"):  # runs the CLI
                importlib.import_module(module.name)
        assert available_backends() == ("fast", "reference")
        with pytest.raises(SystemExit) as exc:
            main(["formats", "--backend", "static"])
        assert exc.value.code == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["formats", "--backend", "turbo"])


class TestStrategyFlag:
    def test_list_strategies(self, capsys):
        assert main(["tune", "--list-strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("greedy", "bisect", "cast_aware", "anneal"):
            assert name in out
        assert "(default)" in out

    def test_tune_command_meets_target(self, capsys, tmp_path):
        args = [
            "tune",
            "--scale", "tiny",
            "--apps", "conv",
            "--strategy", "bisect",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "strategy bisect" in out
        assert "target met" in out
        # The strategy-keyed cache file landed on disk.
        assert list(tmp_path.glob("*bisect*.json"))

        # A re-run replays the cache (zero new evaluations spent now).
        assert main(args) == 0
        assert "cache" in capsys.readouterr().out

    def test_driver_accepts_strategy(self, capsys, tmp_path):
        code = main(
            [
                "motivation",
                "--scale", "tiny",
                "--apps", "conv",
                "--strategy", "bisect",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "fleet avg" in capsys.readouterr().out

    def test_strategies_driver_renders_table(self, capsys, tmp_path):
        code = main(
            [
                "strategies",
                "--scale", "tiny",
                "--apps", "conv",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vs greedy" in out
        assert "bisect" in out

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["formats", "--strategy", "magic"])

    def test_list_strategies_requires_tune(self):
        # The flag must not silently swallow other requested work.
        with pytest.raises(SystemExit):
            main(["fig6", "--list-strategies"])


def two_job_grid(cfg):
    """A two-job stand-in for the full grid: one flow, one report."""
    return [
        cfg.runner.flow_spec("conv", "V2", 1e-1),
        cfg.runner.report_spec("baseline", "conv"),
    ]


@pytest.fixture
def run_args(monkeypatch, tmp_path):
    """``repro run`` arguments over a throwaway two-job campaign."""
    monkeypatch.setattr(cli, "default_grid", two_job_grid)
    yield [
        "run", "--scale", "tiny", "--backend", "fast",
        "--cache-dir", str(tmp_path / "cache"),
        "--store-dir", str(tmp_path / "store"),
    ]
    faults.deactivate()  # --fault-plan activates for the process


class TestRunVerb:
    IO_ERRORS = ["--fault-plan", '{"seed": 1, "io_error_rate": 1.0}']

    def test_cold_run_computes_every_job(self, capsys, run_args):
        assert main(run_args) == 0
        out = capsys.readouterr().out
        assert "repro run: 2 jobs" in out
        assert "store warm: 2 computed, 0 store hits" in out

    def test_warm_rerun_computes_nothing(self, capsys, run_args):
        assert main(run_args) == 0
        capsys.readouterr()
        assert main(run_args) == 0
        assert "store warm: 0 computed, 2 store hits" in (
            capsys.readouterr().out
        )

    def test_failed_jobs_exit_3_and_are_listed(self, capsys, run_args):
        code = main(run_args + self.IO_ERRORS + ["--retries", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "2 job(s) failed beyond their retry budget:" in out
        assert "  - flow conv tiny V2 0.1 failed (error, 1 attempts)" in out
        assert "  - report conv tiny baseline failed (error, 1 attempts)" in (
            out
        )
        assert "InjectedIOError" in out

    def test_strict_campaign_exits_2(self, capsys, run_args):
        code = main(
            run_args + self.IO_ERRORS + ["--retries", "0", "--strict"]
        )
        assert code == 2
        assert "campaign failed (strict)" in capsys.readouterr().out


class TestStoreGcVerb:
    def test_gc_migrates_a_pending_previous_version_entry(
        self, capsys, tmp_path
    ):
        spec = JobSpec("flow", "conv", "tiny", "V2", 1e-1)
        plant_legacy_flat(tmp_path, spec, {"answer": 42})
        dry_run = ["store", "gc", "--store-dir", str(tmp_path), "--dry-run"]
        assert main(dry_run) == 1
        assert "would be migrated 1" in capsys.readouterr().out
        assert main(["store", "gc", "--store-dir", str(tmp_path)]) == 0
        assert "  migrated 1" in capsys.readouterr().out
        assert main(dry_run) == 0
        store = ResultStore(tmp_path)
        assert store.version == STORE_VERSION
        assert store.load(spec) == {"answer": 42}
        assert (store.hits, store.migrated) == (1, 0)
