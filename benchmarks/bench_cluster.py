"""Cluster-simulator wall-time per core count.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py -q

The strong-scaling grid multiplies every kernel replay by (core counts
x sharing ratios), so the cluster engine itself must stay fast as the
grid grows.  This bench times ``ClusterPlatform.run`` on the two
heaviest partitionable kernels at every core count (1:2 sharing) and
writes the series to ``results/bench/cluster.json`` so engine
regressions show up across PRs.

The engine replays each FPU group on its own.  A one-core cluster takes
the single-core pass; at 1:2 every group of two active cores runs the
shared-group arbiter, which costs about twice as much per instruction
(each core parks at every FP instruction).  The total instruction count
is nearly constant across core counts, so the gate bounds the 8-core
replay at 4x the 1-core replay, each the median of 5 runs.
"""

import json
import statistics
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
RUNS = 5
#: The 8-core replay may cost at most this many 1-core replays.
MAX_RATIO = 4.0


def test_cluster_simulator_walltime_per_core_count():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    series = {
        "scale": SCALE, "fpu_ratio": FPU_RATIO, "runs": RUNS, "apps": {}
    }
    ratios = {}

    for app_name in APPS:
        app = make_app(app_name, SCALE)
        binding = app.baseline_binding()
        serial_cycles = simulate_program_timing(
            app.build_program(binding)
        ).cycles
        # Time only the cluster engine: programs are built and lowered
        # (and the serial baseline timed) outside the measured window,
        # so every core count measures the same thing.
        platforms = {}
        for cores in CORE_COUNTS:
            programs = app.partition(cores, binding)
            for program in programs:
                program.columns()
            platforms[cores] = (
                ClusterPlatform(ClusterConfig(cores, FPU_RATIO)), programs
            )
        # Rounds visit every core count in turn, so host-load drift
        # lands on all of them alike instead of skewing the ratio.
        times = {cores: [] for cores in CORE_COUNTS}
        reports = {}
        for _ in range(RUNS):
            for cores, (platform, programs) in platforms.items():
                start = time.perf_counter()
                reports[cores] = platform.run(
                    programs, name=app.name, serial_cycles=serial_cycles
                )
                times[cores].append(time.perf_counter() - start)
        rows = {
            cores: {
                "sim_seconds": statistics.median(times[cores]),
                "cycles": reports[cores].cycles,
                "instructions": reports[cores].instructions,
                "speedup": reports[cores].speedup,
            }
            for cores in CORE_COUNTS
        }
        series["apps"][app_name] = rows
        ratios[app_name] = rows[8]["sim_seconds"] / rows[1]["sim_seconds"]
    series["ratio_8_to_1"] = ratios

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
        print(f"  {app_name:7s} 8-core / 1-core: {ratios[app_name]:.2f}x")

    # Engine gate: the instructions replayed are nearly the same at
    # every core count, so 8 cores sharing 4 FPUs may not cost more
    # than MAX_RATIO times one core.
    for app_name, ratio in ratios.items():
        assert ratio <= MAX_RATIO, (
            f"{app_name}: 8-core replay takes {ratio:.2f}x the 1-core "
            f"replay (gate {MAX_RATIO:g}x)"
        )
