"""End-to-end campaign tests: drivers + CLI over the runner.

These pin the PR's acceptance criteria: a warm store satisfies every
driver with zero tuning/platform recomputation, a parallel grid run is
bit-identical to the serial path, and the ``repro run`` CLI warms the
store across worker processes.
"""

import pytest

from repro.analysis import (
    ExperimentConfig,
    ablation,
    default_grid,
    fig4,
    fig5,
    fig6,
    fig7,
    flow_result,
    motivation,
    strategies,
    summary,
    table1,
)
from repro.cli import main
from repro.runner import STORE_VERSION
from repro.tuning import V2

ALL_DRIVERS = (
    motivation, table1, fig4, fig5, fig6, fig7, summary, ablation,
    strategies,
)


def make_cfg(tmp_path, **overrides):
    kwargs = dict(
        scale="tiny",
        cache_dir=tmp_path / "cache",
        store_dir=tmp_path / "store",
        precisions=(1e-1,),
        apps=("conv", "knn"),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestWarmStoreZeroRecompute:
    @pytest.fixture(scope="class")
    def warm_dirs(self, tmp_path_factory):
        """Run every driver once; hand the warmed dirs to the tests."""
        tmp_path = tmp_path_factory.mktemp("campaign")
        cfg = make_cfg(tmp_path)
        for driver in ALL_DRIVERS:
            driver.compute(cfg)
        assert cfg.runner.counters.computed > 0
        return tmp_path

    def test_every_driver_is_pure_cache_hits(self, warm_dirs):
        """The acceptance bar: a warm store means zero recomputation
        across the full driver suite (all tuning and platform work is
        replayed from disk)."""
        cfg = make_cfg(warm_dirs)
        for driver in ALL_DRIVERS:
            driver.compute(cfg)
        counters = cfg.runner.counters
        assert counters.computed == 0
        assert counters.store_hits > 0

    def test_warm_results_equal_cold_results(self, warm_dirs):
        cold_cfg = make_cfg(warm_dirs, store_dir=warm_dirs / "cold-store")
        warm_cfg = make_cfg(warm_dirs)
        # Tuning cache is shared, store is not: the cold config re-runs
        # steps 3-5 while the warm one replays them from the store.
        assert fig6.compute(cold_cfg) == fig6.compute(warm_cfg)
        assert cold_cfg.runner.counters.computed > 0
        assert warm_cfg.runner.counters.computed == 0


class TestParallelGridIdentical:
    def test_fig6_grid_parallel_equals_serial(self, tmp_path):
        """--jobs 2 over the fig6 grid reproduces the serial results
        bit for bit."""
        serial_cfg = make_cfg(tmp_path / "serial")
        parallel_cfg = make_cfg(tmp_path / "parallel", jobs=2)
        serial = fig6.compute(serial_cfg)
        parallel = fig6.compute(parallel_cfg)
        assert parallel_cfg.runner.counters.computed > 0
        assert serial == parallel
        # The underlying flow results are equal too, not just the
        # aggregated ratios.
        for app in serial_cfg.apps:
            assert flow_result(
                serial_cfg, app, V2, 1e-1
            ) == flow_result(parallel_cfg, app, V2, 1e-1)


class TestExperimentConfigEquality:
    def test_identical_knobs_compare_equal_after_flows(self, tmp_path):
        a = make_cfg(tmp_path)
        b = make_cfg(tmp_path)
        assert a == b
        flow_result(a, "conv", V2, 1e-1)
        # Execution state (runner memo, session) is not a knob.
        assert a == b

    def test_different_knobs_still_differ(self, tmp_path):
        assert make_cfg(tmp_path) != make_cfg(tmp_path, scale="small")


class TestDefaultGrid:
    def test_covers_all_drivers(self, tmp_path):
        cfg = make_cfg(tmp_path)
        specs = default_grid(cfg)
        kinds = {(s.kind, s.variant) for s in specs}
        assert ("flow", "") in kinds
        for variant in ("baseline", "castless", "fast16", "pca_manual"):
            assert ("report", variant) in kinds
        type_systems = {s.type_system for s in specs if s.kind == "flow"}
        assert {"V1", "V2", "V2no8"} <= type_systems

    def test_no_duplicates(self, tmp_path):
        specs = default_grid(make_cfg(tmp_path))
        assert len(specs) == len(set(specs))


class TestCliRun:
    def test_run_jobs_2_smoke(self, capsys, tmp_path):
        """`repro run --scale tiny --jobs 2` warms the store with
        per-job progress lines; a repeat run is pure hits."""
        args = [
            "run",
            "--scale", "tiny",
            "--jobs", "2",
            "--apps", "conv,knn",
            "--cache-dir", str(tmp_path / "cache"),
            "--store-dir", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "repro run:" in out
        assert "ran  " in out          # per-job progress lines
        assert "0 store hits" in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out     # warm: nothing recomputed
        assert (tmp_path / "store" / f"v{STORE_VERSION}").exists()

    def test_driver_after_cli_warmup_is_instant_hits(
        self, capsys, tmp_path
    ):
        args = [
            "run", "motivation",
            "--scale", "tiny",
            "--jobs", "2",
            "--apps", "conv",
            "--cache-dir", str(tmp_path / "cache"),
            "--store-dir", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        assert "fleet avg" in capsys.readouterr().out

    def test_bad_jobs_value_clamped(self, capsys, tmp_path):
        code = main(
            [
                "motivation",
                "--scale", "tiny",
                "--jobs", "0",
                "--apps", "conv",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
