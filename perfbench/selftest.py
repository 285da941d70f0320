"""Self-tests of the benchmark, run on tiny-scale workloads.

    python3 -m pytest perfbench/selftest.py -q

They check that every workload finishes with no failed check and
reports every metric BENCHMARK.json names, that the traced runs
attribute at least 95% of their wall time to named layers, that a
corrupted output is counted as a failure, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def tiny_args(**overrides) -> argparse.Namespace:
    args = dict(scale="tiny", seed=3, seconds=1.0, traced=False)
    args.update(overrides)
    return argparse.Namespace(**args)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    metrics = result_of(workload, 0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_its_wall_to_layers(workload):
    metrics = result_of(workload, 1)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["error_rate"] == 0
    assert 0 <= metrics["other_s"] <= 0.05 * metrics["traced_wall_s"]
    layers = {
        name: value for name, value in metrics.items()
        if name.endswith("_s") and name not in ("traced_wall_s", "other_s")
    }
    if workload == "small-cold":
        assert max(layers, key=layers.get) == "tuning.evaluate_s"
    if workload == "paper-kernels":
        assert all(
            value == 0 for name, value in metrics.items()
            if name.startswith("tuning.")
        )
    if workload == "serve-warm":
        assert metrics["server.requests"] > 0
        assert metrics["server.computed"] == 0


def test_altered_store_report_fails_small_cold(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.SmallCold(tiny_args(), tmp_path, None)
    workload.setup()
    code, cold_text = workload.cold_pass(workloads.Stopwatch(None))
    # A stored baseline report with one cycle more and a checksum that
    # matches: the store serves it, only the re-render can notice.
    path = sorted(Path("results/store").glob("v*/report/*/baseline-*"))[0]
    envelope = json.loads(path.read_text())
    envelope["payload"]["timing"]["cycles"] += 1
    envelope["checksum"] = workloads.canonical_checksum(envelope["payload"])
    path.write_text(json.dumps(envelope))
    entries = workloads.store_entries(Path("results/store"))
    checks = workload.check(code, cold_text, entries)
    assert checks.failed >= 1


def test_flipped_store_byte_fails_serve_warm(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.ServeWarm(tiny_args(), tmp_path, None)
    try:
        workload.setup()
        path = next(Path("results/store").glob("v*/flow/*/*.json"))
        data = bytearray(path.read_bytes())
        at = data.index(b'"cycles": ') + len(b'"cycles": ')
        data[at] = ord("8") if data[at] == ord("9") else ord("9")
        path.write_bytes(bytes(data))
        result = workload.measure()
    finally:
        workload.close()
    assert result["failed"] >= 1


def test_nondeterministic_replay_fails_paper_kernels(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.PaperKernels(tiny_args(), tmp_path, None)
    workload.setup()
    platform = workload.platforms["default"]
    run = platform.run
    calls = []

    def drifting(program):
        report = run(program)
        calls.append(program)
        if len(calls) % 2 == 0:  # every re-replay reports one more cycle
            report.timing.cycles += 1
        return report

    monkeypatch.setattr(platform, "run", drifting)
    assert workload.measure()["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = run_bench("small-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
