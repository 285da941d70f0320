"""Cluster-simulator wall-time per core count.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py -q

The strong-scaling grid multiplies every kernel replay by (core counts
x sharing ratios), so the cycle-stepped cluster engine itself must stay
fast as the grid grows.  This bench times ``ClusterPlatform.run_app``
on the two heaviest partitionable kernels at every core count and
writes the series to ``results/bench/cluster.json`` so engine
regressions show up across PRs.

The engine is event-driven per issue slot: wall time should grow
roughly with the *total* instruction count (which is nearly constant
across core counts), not with cores x makespan.  The gate asserts the
8-core simulation stays within an order of magnitude of the 1-core one.
"""

import json
import time
from pathlib import Path

from repro.apps import make_app
from repro.cluster import ClusterConfig, ClusterPlatform
from repro.hardware import simulate_program_timing

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"

APPS = ("conv", "jacobi")
CORE_COUNTS = (1, 2, 4, 8)
FPU_RATIO = 2
SCALE = "small"


def test_cluster_simulator_walltime_per_core_count():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    series = {"scale": SCALE, "fpu_ratio": FPU_RATIO, "apps": {}}

    for app_name in APPS:
        app = make_app(app_name, SCALE)
        binding = app.baseline_binding()
        serial_cycles = simulate_program_timing(
            app.build_program(binding)
        ).cycles
        rows = {}
        for cores in CORE_COUNTS:
            platform = ClusterPlatform(ClusterConfig(cores, FPU_RATIO))
            # Time only the cluster engine: programs are built (and the
            # serial baseline timed) outside the measured window, so
            # every core count measures the same thing.
            programs = app.partition(cores, binding)
            start = time.perf_counter()
            report = platform.run(
                programs, name=app.name, serial_cycles=serial_cycles
            )
            elapsed = time.perf_counter() - start
            rows[cores] = {
                "sim_seconds": elapsed,
                "cycles": report.cycles,
                "instructions": report.instructions,
                "speedup": report.speedup,
            }
        series["apps"][app_name] = rows

        # Engine gate: simulating 8 cores must not cost an order of
        # magnitude more wall time than simulating 1 (the work -- total
        # instructions replayed -- is nearly identical).
        assert rows[8]["sim_seconds"] < max(
            10 * rows[1]["sim_seconds"], 2.0
        ), f"{app_name}: cluster engine wall time scales with cores"

    out = RESULTS_DIR / "cluster.json"
    out.write_text(json.dumps(series, indent=2))
    print(f"\nwrote {out}")
    for app_name, rows in series["apps"].items():
        for cores, row in rows.items():
            print(
                f"  {app_name:7s} {cores} cores: "
                f"{row['sim_seconds'] * 1e3:7.1f} ms sim, "
                f"{row['cycles']:8d} cycles"
            )
