"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


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

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["formats", "--scale", "huge"])

    def test_engine_flag_rejected(self, capsys):
        # One replay engine ships: there is no engine to select.
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--engine", "legacy"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


class TestStaticVerb:
    def test_check_passes_on_every_app(self, capsys):
        from repro.apps import APP_NAMES

        assert main(["static", "--scale", "tiny", "--check"]) == 0
        out = capsys.readouterr().out
        for name in APP_NAMES:
            assert f"{name} (tiny, input 0):" in out
        assert out.count(
            "soundness: static bounds contain dynamic ranges"
        ) == len(APP_NAMES)
        assert "UNSOUND" not in out

    def test_json_holds_the_requested_apps(self, capsys, tmp_path):
        path = tmp_path / "ranges.json"
        code = main(["static", "--apps", "conv,dwt", "--json", str(path)])
        assert code == 0
        assert f"wrote {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert list(payload) == ["conv", "dwt"]
        assert "image" in payload["conv"]["variables"]

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["static", "--apps", "conv,fft"])
        assert exc.value.code == 2


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

        assert set(available_backends()) >= {"reference", "fast"}

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
