"""Strategy-comparison ablation: the same problems, every solver.

The precision-tuning step is the platform's most expensive phase, and
the search procedure is now a first-class, swappable API
(:mod:`repro.tuning.api`).  This driver answers the question that API
raises: *what does each solver cost, and what does it buy?*  For every
application it runs each registered tuning strategy against the same
SQNR target and tabulates

* the number of distinct evaluations the search made -- the
  solver-cost measure, independent of what ran earlier in the session,
* the wall time -- what the session paid, with the program runs the
  session memo already held costing next to nothing,
* the total precision bits of the tuned assignment (the quantity the
  searches minimize), and
* whether the assignment meets the target on every input set.

Tunings go through :class:`~repro.flow.TransprecisionFlow`'s
strategy-keyed disk cache, so re-running the driver is free and a
cast-aware run can never collide with a greedy one.  Evaluation counts
and bindings are deterministic for every built-in strategy (the
annealer's RNG is seeded), so the table is stable across runs and
machines; only the wall-time column varies.
"""

from __future__ import annotations

from repro.apps import make_app
from repro.flow import TransprecisionFlow
from repro.tuning import V2, precision_to_sqnr_db, strategy_names

from .common import ExperimentConfig, format_table

__all__ = ["compute", "render"]


def compute(cfg: ExperimentConfig | None = None) -> dict:
    cfg = cfg or ExperimentConfig()
    precision = 1e-1
    target = precision_to_sqnr_db(precision)
    names = strategy_names()
    result: dict = {
        "precision": precision,
        "strategies": list(names),
        "rows": {},
    }
    for app_name in cfg.apps:
        per: dict[str, dict] = {}
        for strategy in names:
            app = make_app(app_name, cfg.scale)
            flow = TransprecisionFlow(
                app,
                V2,
                precision,
                cache_dir=cfg.resolved_cache_dir(),
                session=cfg.session,
                strategy=strategy,
            )
            report = flow.tune_report()
            tuning = report.result
            per[strategy] = {
                "evaluations": report.evaluations,
                "wall_time_s": report.wall_time_s,
                "cached": report.cached,
                "total_bits": sum(tuning.precision.values()),
                "met": all(
                    db >= target for db in tuning.achieved_db.values()
                ),
                "locations": tuning.locations_by_format(
                    V2, app.variables()
                ),
            }
        result["rows"][app_name] = per
    return result


def render(result: dict) -> str:
    names = result["strategies"]
    rows = []
    for app_name, per in result["rows"].items():
        greedy_evals = per.get("greedy", {}).get("evaluations")
        for strategy in names:
            d = per[strategy]
            if greedy_evals:
                saved = 1.0 - d["evaluations"] / greedy_evals
                vs_greedy = f"{saved:+.0%}"
            else:
                vs_greedy = "-"
            rows.append(
                [
                    app_name,
                    strategy,
                    d["evaluations"],
                    vs_greedy,
                    d["total_bits"],
                    "yes" if d["met"] else "NO",
                    "cache" if d["cached"] else f"{d['wall_time_s']:.2f}s",
                ]
            )
    return format_table(
        ["app", "strategy", "evals", "vs greedy", "bits", "met", "time"],
        rows,
        title=(
            "Tuning strategies at precision "
            f"{result['precision']:g} (type system V2; 'vs greedy' = "
            "evaluations saved)"
        ),
    )
