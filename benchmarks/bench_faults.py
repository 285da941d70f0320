"""Fault-tolerance layer: clean-path overhead and recovery latency.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q

Times the same tiny-scale grid three ways -- bare (write verification
off, zero retries: the pre-hardening fast path), fault-tolerant
defaults (verify-on-save, retry policy, ledger), and fault-tolerant
under a 10% injected worker-crash rate -- cross-checks that all three
produce bit-identical stores, and writes the series to
``results/bench/faults.json``.

Gates: the fault-tolerance layer must cost at most 5% wall time on a
clean grid, and crash recovery must actually recompute everything (no
failures, some retries).  The overhead is the median of the
guarded/bare ratios over ``PAIRS`` back-to-back pairs, alternating
which side runs first: one bare run against one guarded run cannot
resolve 5% on a grid of about a second, where pool start-up and host
load drift by more than that between two runs.
"""

import json
import shutil
import statistics
import time
from pathlib import Path

from repro import faults
from repro.faults import FaultPlan
from repro.runner import ExperimentRunner, RetryPolicy
from repro.session import Session

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"
WORK_DIR = RESULTS_DIR / "faults-work"

APPS = ("conv", "knn", "dwt")
PRECISIONS = (1e-1, 1e-2)
SCALE = "tiny"
JOBS = 2
CRASH_RATE = 0.10
MAX_OVERHEAD = 0.05
#: Single guarded/bare ratios on a shared 2-CPU host spread from about
#: 0.8 to 1.35, so a median of 5 can miss the 5% gate by chance; 21
#: pairs keep the median's own spread near 2%.
PAIRS = 21


def make_runner(tag: str, **kwargs) -> ExperimentRunner:
    root = WORK_DIR / tag
    if root.exists():
        shutil.rmtree(root)
    return ExperimentRunner(
        session=Session(cache_dir=root / "tuning"),
        scale=SCALE,
        store_dir=root / "store",
        jobs=JOBS,
        **kwargs,
    )


def timed_run(runner: ExperimentRunner):
    specs = runner.grid(APPS, ["V2"], PRECISIONS)
    start = time.perf_counter()
    results = runner.run(specs)
    return time.perf_counter() - start, results


def store_bytes(runner):
    version_dir = runner.store.version_dir
    return {
        str(p.relative_to(version_dir)): p.read_bytes()
        for p in runner.store.entries()
    }


def make_bare(tag: str) -> ExperimentRunner:
    """The no-retry path: what the engine cost before hardening."""
    runner = make_runner(tag, retry=RetryPolicy(max_retries=0))
    runner.store.verify_writes = False
    return runner


def test_fault_tolerance_overhead_and_recovery():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    # One untimed grid first, so the first timed run does not also pay
    # the process's one-off start-up costs.
    timed_run(make_runner("warmup"))

    # Bare vs fault-tolerant defaults on a clean grid, each pair from
    # empty stores, alternating which side runs first.
    ratios, bare_s, guarded_s = [], [], []
    for rep in range(PAIRS):
        guarded_first = rep % 2 == 1
        bare = make_bare(f"bare-{rep}")
        guarded = make_runner(f"guarded-{rep}")
        if guarded_first:
            t_guarded, out_guarded = timed_run(guarded)
            t_bare, _ = timed_run(bare)
        else:
            t_bare, _ = timed_run(bare)
            t_guarded, out_guarded = timed_run(guarded)
        assert store_bytes(bare) == store_bytes(guarded)
        bare_s.append(t_bare)
        guarded_s.append(t_guarded)
        ratios.append(t_guarded / t_bare)

    # Recovery latency: same grid under a 10% injected crash rate.
    faulty = make_runner("faulty")
    # Seed chosen so the 10% rate really crashes jobs on this grid
    # (knn and dwt at 1e-1 die on their first attempt).
    plan = FaultPlan(seed=2019, crash_rate=CRASH_RATE)
    with faults.use_plan(plan):
        t_faulty, out_faulty = timed_run(faulty)

    # All three paths agree bit for bit, and recovery lost nothing.
    assert store_bytes(guarded) == store_bytes(faulty)
    assert faulty.counters.failed == 0
    assert faulty.ledger.retries > 0  # seed chosen to actually crash

    overhead = statistics.median(ratios) - 1.0
    recovery = t_faulty / statistics.median(guarded_s) - 1.0
    payload = {
        "scale": SCALE,
        "apps": list(APPS),
        "precisions": list(PRECISIONS),
        "jobs": JOBS,
        "grid_size": len(out_guarded),
        "crash_rate": CRASH_RATE,
        "pairs": PAIRS,
        "seconds": {
            "bare": bare_s,
            "fault_tolerant": guarded_s,
            "crash_recovery": t_faulty,
        },
        "paired_ratios": ratios,
        "max_overhead": MAX_OVERHEAD,
        "overhead_fraction": overhead,
        "recovery_overhead_fraction": recovery,
        "ledger": {
            "retries": faulty.ledger.retries,
            "pool_breaks": faulty.ledger.pool_breaks,
            "failures": faulty.ledger.failures,
        },
    }
    out_path = RESULTS_DIR / "faults.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path}\n{json.dumps(payload['seconds'], indent=2)}")

    assert overhead <= MAX_OVERHEAD, (
        f"fault-tolerance overhead {overhead:.1%} (median of {PAIRS} "
        f"paired ratios {[round(r, 3) for r in ratios]}; "
        f"gate: <={MAX_OVERHEAD:.0%})"
    )

    shutil.rmtree(WORK_DIR, ignore_errors=True)
