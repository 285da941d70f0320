"""Behavioural tests for the non-default tuning strategies.

Pins the redesign's acceptance bar: the bisection strategy reaches the
same SQNR targets as greedy with >= 30% fewer ``evaluate()`` calls on
the tiny-scale grid, verified through :class:`TuningReport` accounting.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.tuning import (
    V1,
    V2,
    AnnealingSearch,
    BisectionSearch,
    CastAwareSearch,
    TuningProblem,
    VarSpec,
    precision_to_sqnr_db,
    resolve_strategy,
    strategy_names,
)
from tests.flexfloat import FlexFloatArray

TARGET = precision_to_sqnr_db(1e-1)

#: The tiny-scale grid the evaluation-saving acceptance bar runs on;
#: three apps keeps the test fast while covering different variable
#: counts (3, 4 and 2).
TINY_GRID = ("conv", "knn", "jacobi")


class WeightedSum:
    """y = a*x + b: one sensitive coefficient, one negligible offset."""

    name = "weighted-sum"
    num_inputs = 2

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        self._x = {i: rng.uniform(0.5, 2.0, 64) for i in range(2)}

    def variables(self):
        return [VarSpec("a", 1), VarSpec("b", 1), VarSpec("x", 64)]

    def run(self, binding, input_id=0):
        a = FlexFloatArray(1.234567, binding["a"])
        b = FlexFloatArray(1e-4, binding["b"])
        x = FlexFloatArray(self._x[input_id], binding["x"])
        y = x * a.to_numpy()[()] + b.to_numpy()[()]
        return y.to_numpy()


class WideRange:
    """Magnitudes around 1e6: needs 8 exponent bits (non-monotone zone)."""

    name = "wide-range"
    num_inputs = 1

    def variables(self):
        return [VarSpec("v", 16)]

    def run(self, binding, input_id=0):
        data = np.linspace(1.0e6, 2.0e6, 16)
        v = FlexFloatArray(data, binding["v"])
        return (v * 0.5).to_numpy()


class HugeInputs:
    """Inputs near 1e30: every 5-bit exponent overflows on them."""

    name = "huge-inputs"
    num_inputs = 1

    def variables(self):
        return [VarSpec("w", 4), VarSpec("y", 4)]

    def run(self, binding, input_id=0):
        w = FlexFloatArray(
            np.array([1e30, 2e30, -1e30, 3e30]), binding["w"]
        )
        y = (w * 0.5).cast(binding["y"])
        return y.to_numpy()


def solve(strategy_name: str, program, type_system=V2, **kwargs):
    problem = TuningProblem(program, type_system, TARGET, **kwargs)
    return resolve_strategy(strategy_name).solve(problem)


class TestEveryStrategy:
    @pytest.mark.parametrize(
        "type_system,narrowest",
        [(V1, "binary32"), (V2, "binary16alt")],
        ids=["V1", "V2"],
    )
    @pytest.mark.parametrize("strategy", strategy_names())
    def test_never_stores_in_a_saturating_format(
        self, strategy, type_system, narrowest
    ):
        # binary8 and binary16 turn every input into an infinity, so each
        # search must climb to the narrowest format whose range holds
        # 3e30, for the stored inputs and the computed values alike.
        report = solve(strategy, HugeInputs(), type_system)
        binding = report.result.storage_binding(type_system)
        assert {name: fmt.name for name, fmt in binding.items()} == {
            "w": narrowest,
            "y": narrowest,
        }
        assert all(
            db >= TARGET for db in report.result.achieved_db.values()
        )


class TestBisection:
    def test_meets_target_on_synthetic_programs(self):
        for program in (WeightedSum(), WideRange()):
            report = solve("bisect", program)
            assert all(
                db >= TARGET for db in report.result.achieved_db.values()
            )

    def test_escapes_saturating_exponent_interval(self):
        # Same dynamic-range behaviour as greedy: V2 lands in
        # binary16alt, V1 is forced all the way to binary32.
        v2 = solve("bisect", WideRange(), V2).result
        assert V2.storage_format(v2.precision["v"]).name == "binary16alt"
        v1 = solve("bisect", WideRange(), V1).result
        assert V1.storage_format(v1.precision["v"]).name == "binary32"

    def test_search_class_direct_use(self):
        search = BisectionSearch(WeightedSum(), V2, TARGET)
        result = search.tune()
        assert result.evaluations == search.evaluations > 0
        assert all(db >= TARGET for db in result.achieved_db.values())

    def test_acceptance_30_percent_fewer_evaluations(self):
        """The PR's acceptance bar, via TuningReport accounting: same
        targets met, >= 30% fewer evaluate() calls on the tiny grid."""
        greedy_total = bisect_total = 0
        for app_name in TINY_GRID:
            greedy = solve("greedy", make_app(app_name, "tiny"))
            bisect = solve("bisect", make_app(app_name, "tiny"))
            for report in (greedy, bisect):
                assert all(
                    db >= TARGET
                    for db in report.result.achieved_db.values()
                ), f"{report.strategy} missed the target on {app_name}"
            greedy_total += greedy.evaluations
            bisect_total += bisect.evaluations
        saving = 1.0 - bisect_total / greedy_total
        assert saving >= 0.30, (
            f"bisection saved only {saving:.0%} "
            f"({bisect_total} vs {greedy_total} evaluations)"
        )


class TestAnnealing:
    def test_meets_target(self):
        report = solve("anneal", WeightedSum())
        assert all(
            db >= TARGET for db in report.result.achieved_db.values()
        )

    def test_deterministic_across_runs(self):
        first = solve("anneal", WeightedSum()).result
        second = solve("anneal", WeightedSum()).result
        assert first == second

    def test_never_worse_than_uniform_seed(self):
        # The walk's incumbent is the smallest feasible uniform
        # assignment; annealing may only improve on its total bits.
        search = AnnealingSearch(WeightedSum(), V2, TARGET)
        tuned = search.tune_single_input(0)
        uniform = search._uniform_minimum(0)
        assert sum(tuned.values()) <= uniform * len(tuned)

    def test_seed_changes_walk_reproducibly(self):
        a = AnnealingSearch(WeightedSum(), V2, TARGET, seed=1).tune()
        b = AnnealingSearch(WeightedSum(), V2, TARGET, seed=1).tune()
        assert a == b


class TestCastAwareStrategy:
    def test_matches_direct_search(self):
        direct = CastAwareSearch(
            WeightedSum(), V2, TARGET
        ).tune_cast_aware()
        via_api = solve("cast_aware", WeightedSum()).result
        assert via_api == direct


class TestRefineThroughStrategies:
    """Satellite coverage: refine() joins per-input bisection results."""

    def test_bisection_refined_valid_on_every_input(self):
        search = BisectionSearch(WeightedSum(), V2, TARGET)
        result = search.tune()
        for input_id in (0, 1):
            assert search.evaluate(result.precision, input_id) >= TARGET

    def test_single_input_refine_is_validated_join(self):
        from repro.tuning import refine

        search = BisectionSearch(WeightedSum(), V2, TARGET)
        per_input = {0: search.tune_single_input(0)}
        joined = refine(search, per_input)
        assert all(
            joined[name] >= bits for name, bits in per_input[0].items()
        )
        assert search.evaluate(joined, 0) >= TARGET
