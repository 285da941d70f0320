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
(each core parks at every FP instruction).  Both replay a swept nest
from its steady state: the single-core pass skips a span's iterations
once its pipeline state repeats, a shared group whole periods once its
joint state does.  So the gate compares like with like: the 8-core
replay may take at most 4x the 1-core replay of the same instructions
rebuilt without sweep spans (``Program(name, list(p.instrs),
p.arrays)``), each the median of 5 runs.  The steady 1-core replay is
recorded as its own row, and so is an ungated 8-core 1:4 replay
(``"8-1:4"``); every row records the ``stepped_rows`` its replay walks
beside the ``instructions`` it times.
"""

import json
import statistics
import time
from pathlib import Path

from repro.apps import make_app
from repro.cluster import ClusterConfig, ClusterPlatform
from repro.cluster.engine import simulate_cluster_timing
from repro.hardware import Program, simulate_program_timing

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"

APPS = ("conv", "jacobi")
CORE_COUNTS = (1, 2, 4, 8)
#: The 1-core row whose streams carry no sweep spans: the gate's
#: denominator.
SPAN_FREE = "1-span-free"
#: The ungated row: eight cores sharing two FPUs.
SHARED_4 = "8-1:4"
FPU_RATIO = 2
SCALE = "small"
RUNS = 5
#: The 8-core replay may cost at most this many span-free 1-core
#: replays.
MAX_RATIO = 4.0


def stepped_rows(platform, programs) -> int:
    """Rows one replay of ``programs`` on ``platform`` walks."""
    results = simulate_cluster_timing(
        [p.columns() for p in programs], platform.config
    )
    return sum(r.stepped_rows for r in results)


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
            platforms[cores] = (
                ClusterPlatform(ClusterConfig(cores, FPU_RATIO)), programs
            )
        platforms[SPAN_FREE] = (
            platforms[1][0],
            [Program(p.name, list(p.instrs), p.arrays)
             for p in platforms[1][1]],
        )
        platforms[SHARED_4] = (
            ClusterPlatform(ClusterConfig(8, 4)), platforms[8][1]
        )
        assert not platforms[SPAN_FREE][1][0].stream.spans
        for _, programs in platforms.values():
            for program in programs:
                program.columns()
        # Rounds visit every core count in turn, so host-load drift
        # lands on all of them alike instead of skewing the ratio.
        times = {cores: [] for cores in platforms}
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
                "stepped_rows": stepped_rows(platform, programs),
                "speedup": reports[cores].speedup,
            }
            for cores, (platform, programs) in platforms.items()
        }
        assert rows[SPAN_FREE]["cycles"] == rows[1]["cycles"]
        series["apps"][app_name] = rows
        ratios[app_name] = (
            rows[8]["sim_seconds"] / rows[SPAN_FREE]["sim_seconds"]
        )
    series["ratio_8_to_1_span_free"] = ratios

    out = RESULTS_DIR / "cluster.json"
    out.write_text(json.dumps(series, indent=2))
    print(f"\nwrote {out}")
    for app_name, rows in series["apps"].items():
        for cores, row in rows.items():
            print(
                f"  {app_name:7s} {cores!s:>11} cores: "
                f"{row['sim_seconds'] * 1e3:7.1f} ms sim, "
                f"{row['cycles']:8d} cycles, "
                f"{row['stepped_rows']} of {row['instructions']} rows stepped"
            )
        print(
            f"  {app_name:7s} 8-core / span-free 1-core: "
            f"{ratios[app_name]:.2f}x"
        )

    # Engine gate: the instructions replayed are nearly the same at
    # every core count, so 8 cores sharing 4 FPUs may not cost more
    # than MAX_RATIO times one core replaying every instruction.
    for app_name, ratio in ratios.items():
        assert ratio <= MAX_RATIO, (
            f"{app_name}: 8-core replay takes {ratio:.2f}x the span-free "
            f"1-core replay (gate {MAX_RATIO:g}x)"
        )
