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
"""

import json
from pathlib import Path

from repro import Session
from repro.apps import make_app
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


def test_strategy_evaluations_and_walltime():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
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
    out_path = RESULTS_DIR / "tuning.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    for name, d in per_strategy.items():
        print(
            f"  {name:12s} {d['evaluations']:5d} evaluations "
            f"{d['seconds']:6.2f}s "
            f"({payload['savings_vs_greedy'][name]:+.0%} vs greedy)"
        )

    # The redesign's acceptance bar.
    assert payload["savings_vs_greedy"]["bisect"] >= 0.30
