"""Tuning-strategy costs: evaluations and wall time per solver.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_tuning.py -q

Solves the same tiny-scale problems with every registered tuning
strategy, cross-checks that each one meets the SQNR target, and writes
the per-strategy evaluation/wall-time series to
``results/bench/tuning.json`` so solver cost is tracked across PRs.
Each (strategy, app) solve runs in a fresh :class:`~repro.Session`:
searches share program runs through the session's memo, and a solver
timed after another would otherwise be credited with its runs.

Also gates the redesign's headline number: the bisection strategy must
reach the same targets as greedy with >= 30% fewer ``evaluate()``
calls on this grid (in practice it saves 50-70%).

``test_lockstep_batch_is_faster`` gates what the greedy search gains
from lockstep evaluation, app by app: five small-scale bindings shaped
like repair trials (a narrow binding with one more bit on one variable)
run as one ``run_numeric_batch`` must be faster than as five lone
``run_numeric`` calls, with byte-equal rows: pca by at least
``MIN_PCA_LOCKSTEP_SPEEDUP`` (its covariance and power iteration share
the most work across rows), every other app by at least
``MIN_LOCKSTEP_SPEEDUP``.  Each ratio is of medians over ``ROUNDS``
interleaved rounds; the per-app series go under ``"lockstep"``.
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro import Session
from repro.apps import APP_NAMES, make_app
from repro.tuning import (
    V2,
    TuningProblem,
    precision_to_sqnr_db,
    resolve_strategy,
    strategy_names,
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"

APPS = ("conv", "knn", "jacobi")
PRECISION = 1e-1
SCALE = "tiny"

ROUNDS = 9
#: One batched run of five repair trials must be at least this many
#: times faster than five lone runs: pca, and every other app.
MIN_PCA_LOCKSTEP_SPEEDUP = 3.0
MIN_LOCKSTEP_SPEEDUP = 1.3
LOCKSTEP_ROWS = 5


def record(update: dict) -> Path:
    """Merge ``update`` into ``tuning.json``, which both tests write."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "tuning.json"
    series = json.loads(out.read_text()) if out.exists() else {}
    series.update(update)
    out.write_text(json.dumps(series, indent=2) + "\n")
    print(f"\nwrote {out}")
    return out


def test_strategy_evaluations_and_walltime():
    target = precision_to_sqnr_db(PRECISION)

    per_strategy: dict[str, dict] = {}
    for name in strategy_names():
        strategy = resolve_strategy(name)
        evaluations = 0
        seconds = 0.0
        per_app: dict[str, int] = {}
        for app_name in APPS:
            problem = TuningProblem.for_precision(
                make_app(app_name, SCALE), V2, PRECISION
            )
            with Session():
                report = strategy.solve(problem)
            assert all(
                db >= target for db in report.result.achieved_db.values()
            ), f"{name} missed the target on {app_name}"
            evaluations += report.evaluations
            seconds += report.wall_time_s
            per_app[app_name] = report.evaluations
        per_strategy[name] = {
            "evaluations": evaluations,
            "seconds": seconds,
            "per_app": per_app,
        }

    greedy = per_strategy["greedy"]["evaluations"]
    payload = {
        "scale": SCALE,
        "apps": list(APPS),
        "precision": PRECISION,
        "strategies": per_strategy,
        "savings_vs_greedy": {
            name: 1.0 - d["evaluations"] / greedy
            for name, d in per_strategy.items()
        },
    }
    record(payload)
    for name, d in per_strategy.items():
        print(
            f"  {name:12s} {d['evaluations']:5d} evaluations "
            f"{d['seconds']:6.2f}s "
            f"({payload['savings_vs_greedy'][name]:+.0%} vs greedy)"
        )

    # The redesign's acceptance bar.
    assert payload["savings_vs_greedy"]["bisect"] >= 0.30


def repair_trials(app, seed: int = 0) -> list[dict]:
    """One repair step's trials: a narrow V2 search binding (4 to 20
    bits per variable) with one more bit on each variable in turn."""
    names = [spec.name for spec in app.variables()]
    rng = np.random.default_rng(seed)
    base = dict(zip(names, rng.integers(4, 21, len(names)).tolist()))
    trials = []
    for name in names:
        trial = dict(base)
        trial[name] += 1
        trials.append({n: V2.search_format(p) for n, p in trial.items()})
    return trials


def lockstep_trials(app, rows: int = LOCKSTEP_ROWS) -> list[dict]:
    """``rows`` repair trials: one repair step's, then the next seed's
    when the app has fewer variables than ``rows``."""
    trials: list[dict] = []
    seed = 0
    while len(trials) < rows:
        trials += repair_trials(app, seed)
        seed += 1
    return trials[:rows]


def lockstep_speedup(app) -> dict:
    """Median wall of one batch of trials against their lone runs."""
    trials = lockstep_trials(app)
    times = {"batch": [], "lone": []}
    with Session(backend="fast"):
        app.run_numeric_batch(trials, 0)  # warm the format caches
        # Rounds alternate the two forms, so host-load drift lands on
        # both alike instead of skewing the ratio.
        for _ in range(ROUNDS):
            start = time.perf_counter()
            batch = app.run_numeric_batch(trials, 0)
            times["batch"].append(time.perf_counter() - start)
            start = time.perf_counter()
            lone = [app.run_numeric(trial, 0) for trial in trials]
            times["lone"].append(time.perf_counter() - start)
    assert [row.tobytes() for row in batch] == [
        row.tobytes() for row in lone
    ], app.name
    batch_s = statistics.median(times["batch"])
    lone_s = statistics.median(times["lone"])
    return {
        "batch_s": batch_s,
        "lone_s": lone_s,
        "speedup": lone_s / batch_s,
        "gate": (
            MIN_PCA_LOCKSTEP_SPEEDUP if app.name == "pca"
            else MIN_LOCKSTEP_SPEEDUP
        ),
        "runs": times,
    }


def test_lockstep_batch_is_faster():
    per_app = {
        name: lockstep_speedup(make_app(name, "small"))
        for name in APP_NAMES
    }
    record({
        "lockstep": {
            "scale": "small",
            "rows": LOCKSTEP_ROWS,
            "rounds": ROUNDS,
            "apps": per_app,
        }
    })
    for name, d in per_app.items():
        print(
            f"  {name:7s} {LOCKSTEP_ROWS} repair trials: one batch "
            f"{d['batch_s'] * 1e3:5.1f} ms, lone runs "
            f"{d['lone_s'] * 1e3:5.1f} ms, {d['speedup']:.1f}x "
            f"(gate {d['gate']:g}x)"
        )
    slow = {
        name: round(d["speedup"], 2)
        for name, d in per_app.items() if d["speedup"] < d["gate"]
    }
    assert not slow, f"lockstep batch below its gate: {slow}"
