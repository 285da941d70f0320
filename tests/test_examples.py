"""Smoke tests: every shipped example must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "binary16" in out
        assert "bit-identical across backends: True" in out

    def test_format_exploration(self):
        out = run_example("format_exploration.py")
        assert "exponent bits" in out
        assert "vfmul.b" in out
        # 2 * x + 0.5 in binary8: 4.5, 6.5 and 8.5 tie and round to even.
        assert "\nresult: [2.5 4.  6.  8. ]\n" in out

    def test_tune_knn(self):
        out = run_example("tune_knn.py", "1e-1")
        assert "Step 5" in out
        assert "memory accesses" in out
        # The strategy-comparison epilogue covers every solver.
        assert "Strategy comparison" in out
        for name in ("greedy", "bisect", "cast_aware", "anneal"):
            assert name in out

    def test_tune_knn_with_strategy(self):
        out = run_example("tune_knn.py", "1e-1", "bisect")
        assert "strategy bisect" in out
        assert "Step 5" in out

    def test_vectorized_energy(self):
        out = run_example("vectorized_energy.py")
        assert "binary8 + 4-lane SIMD" in out

    def test_custom_app(self):
        out = run_example("custom_app.py")
        assert "precision 0.001" in out

    def test_cluster_scaling(self):
        out = run_example("cluster_scaling.py", "conv", "tiny")
        assert "1:4" in out
        assert "contention stalls" in out
        assert "FPU instances" in out

    def test_cluster_scaling_rejects_unpartitionable_apps(self):
        result = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "cluster_scaling.py"),
                "pca",
                "tiny",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode != 0
        assert "no data-parallel partition" in result.stderr
