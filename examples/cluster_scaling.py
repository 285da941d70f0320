"""Strong scaling on the multi-core transprecision cluster.

Sweeps a kernel over {1, 2, 4, 8} cores x {1:1, 1:2, 1:4} FPU sharing
and prints the efficiency table programmatically -- the same numbers
``python -m repro cluster`` derives for the tuned grid, here driven
straight through ``ClusterPlatform(ClusterConfig(cores, ratio))`` on a
binding of your choosing.

Run with::

    python examples/cluster_scaling.py [app] [scale]
"""

import sys

from repro import Session
from repro.apps import make_app
from repro.cluster import ClusterConfig, ClusterPlatform
from repro.core import BINARY16ALT
from repro.hardware import simulate_program_timing


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "conv"
    scale = sys.argv[2] if len(sys.argv) > 2 else "small"
    session = Session()
    app = make_app(app_name, scale)
    if not app.partitionable:
        raise SystemExit(
            f"{app_name} has no data-parallel partition; "
            "try conv, dwt, knn or jacobi"
        )

    # A 16-bit storage binding: narrow enough to vectorize, wide enough
    # to stay accurate -- swap in a tuned binding from a flow if you
    # want the paper-grade configuration.
    binding = {v.name: BINARY16ALT for v in app.variables()}

    # One strong-scaling baseline serves the whole topology sweep.
    serial_cycles = simulate_program_timing(
        app.build_program(binding)
    ).cycles

    print(f"{app_name} ({scale} scale), all-binary16alt binding")
    print(f"{'sharing':>8s}", end="")
    core_counts = (1, 2, 4, 8)
    for cores in core_counts:
        print(f"  {cores:>2d} core{'s' if cores > 1 else ' '}     ", end="")
    print()

    with session:
        for fpu_ratio in (1, 2, 4):
            print(f"{'1:' + str(fpu_ratio):>8s}", end="")
            for cores in core_counts:
                platform = ClusterPlatform(ClusterConfig(cores, fpu_ratio))
                report = platform.run_app(
                    app, binding, serial_cycles=serial_cycles
                )
                print(
                    f"  {report.speedup:4.2f}x ({report.efficiency:4.0%})",
                    end="",
                )
            print()

    # One topology in detail: where do the cycles and the energy go?
    platform = ClusterPlatform(ClusterConfig(8, 4))
    with session:
        report = platform.run_app(
            app, binding, serial_cycles=serial_cycles
        )
    print(f"\n8 cores, 1:4 sharing ({report.config.n_fpus} FPU instances):")
    print(f"  makespan          {report.cycles} cycles "
          f"(serial {report.serial_cycles})")
    print(f"  contention stalls {report.contention_stalls}")
    print(f"  cluster energy    {report.energy_pj / 1e3:.1f} nJ "
          f"(FPU static {report.fpu_static_pj / 1e3:.1f} nJ)")
    per_core = ", ".join(str(r.cycles) for r in report.cores)
    print(f"  per-core cycles   {per_core}")


if __name__ == "__main__":
    main()
