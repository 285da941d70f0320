"""Tests for the pluggable tuning-strategy API (problem/report/registry)."""

import numpy as np
import pytest

from repro.tuning import (
    DEFAULT_STRATEGY,
    V2,
    BudgetExceededError,
    DistributedSearch,
    GreedyStrategy,
    InfeasibleError,
    TuningProblem,
    TuningReport,
    TuningStrategy,
    VarSpec,
    precision_to_sqnr_db,
    register_strategy,
    resolve_strategy,
    strategy_names,
)
from tests.flexfloat import FlexFloatArray


class TwoVar:
    """y = a*x with one sensitive and one bulk variable."""

    name = "two-var"
    num_inputs = 2

    def __init__(self) -> None:
        rng = np.random.default_rng(11)
        self._x = {i: rng.uniform(0.5, 2.0, 32) for i in range(2)}

    def variables(self):
        return [VarSpec("a", 1), VarSpec("x", 32)]

    def run(self, binding, input_id=0):
        a = FlexFloatArray(1.234567, binding["a"])
        x = FlexFloatArray(self._x[input_id], binding["x"])
        return (x * a.to_numpy()[()]).to_numpy()


class OneVar:
    """Single-variable program (the smallest tunable surface)."""

    name = "one-var"
    num_inputs = 1

    def variables(self):
        return [VarSpec("v", 8)]

    def run(self, binding, input_id=0):
        v = FlexFloatArray(np.linspace(0.5, 1.5, 8), binding["v"])
        return (v * 0.75).to_numpy()


class Hopeless:
    """Output is pure noise regardless of precision: infeasible."""

    name = "hopeless"
    num_inputs = 1

    def variables(self):
        return [VarSpec("v", 1)]

    def run(self, binding, input_id=0):
        if binding["v"].man_bits == 52:
            return np.zeros(4)
        return np.ones(4)


TARGET = precision_to_sqnr_db(1e-1)


class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = strategy_names()
        assert names[0] == "greedy" == DEFAULT_STRATEGY
        assert {"greedy", "bisect", "cast_aware", "anneal"} <= set(names)

    def test_resolve_by_name_case_insensitive(self):
        assert resolve_strategy("GREEDY") is resolve_strategy("greedy")

    def test_resolve_none_is_default(self):
        assert resolve_strategy(None).name == DEFAULT_STRATEGY

    def test_resolve_passes_instances_through(self):
        instance = resolve_strategy("bisect")
        assert resolve_strategy(instance) is instance

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="greedy"):
            resolve_strategy("nope")

    def test_reregistering_same_class_is_idempotent(self):
        register_strategy(GreedyStrategy)
        assert resolve_strategy("greedy").name == "greedy"

    def test_different_class_under_existing_name_refused(self):
        class Impostor(TuningStrategy):
            name = "greedy"

            def search(self, problem):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Impostor)

    def test_unnamed_strategy_refused(self):
        class NoName(TuningStrategy):
            def search(self, problem):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="name"):
            register_strategy(NoName)

    def test_same_class_different_config_refused(self):
        # Silently swapping what "anneal" means would poison every
        # cache and store entry keyed by the name.
        from repro.tuning import AnnealingStrategy

        with pytest.raises(ValueError, match="configured"):
            register_strategy(AnnealingStrategy(seed=99))
        assert resolve_strategy("anneal").seed == 0

    def test_reconfigured_instance_under_own_name(self):
        from repro.tuning import AnnealingStrategy
        from repro.tuning.api import _REGISTRY

        custom = AnnealingStrategy(seed=99)
        custom.name = "anneal99"
        register_strategy(custom)
        try:
            assert resolve_strategy("anneal99") is custom
            assert resolve_strategy("anneal").seed == 0
        finally:
            # Keep the process-wide registry pristine for other tests.
            _REGISTRY.pop("anneal99", None)


class TestTuningProblem:
    def test_for_precision_converts_to_db(self):
        problem = TuningProblem.for_precision(TwoVar(), V2, 1e-1)
        assert problem.target_db == pytest.approx(TARGET)

    def test_input_ids_normalized_to_tuple(self):
        problem = TuningProblem(TwoVar(), V2, TARGET, input_ids=[0, 1])
        assert problem.input_ids == (0, 1)

    def test_resolved_input_ids_defaults_to_all(self):
        problem = TuningProblem(TwoVar(), V2, TARGET)
        assert problem.resolved_input_ids() == (0, 1)
        pinned = TuningProblem(TwoVar(), V2, TARGET, input_ids=(1,))
        assert pinned.resolved_input_ids() == (1,)


class TestTuningReport:
    def _report(self):
        problem = TuningProblem(TwoVar(), V2, TARGET)
        return resolve_strategy("greedy").solve(problem)

    def test_payload_round_trip_lossless(self):
        report = self._report()
        rebuilt = TuningReport.from_payload(report.to_payload())
        assert rebuilt == report

    def test_accounting_matches_result(self):
        report = self._report()
        assert report.evaluations == report.result.evaluations > 0
        assert report.wall_time_s >= 0.0
        assert report.cached is False
        assert report.strategy == "greedy"

    def test_storage_binding_passthrough(self):
        report = self._report()
        assert report.storage_binding(V2) == report.result.storage_binding(
            V2
        )


class TestGreedyParity:
    def test_bit_identical_to_direct_search(self):
        direct = DistributedSearch(TwoVar(), V2, TARGET).tune()
        via_api = resolve_strategy("greedy").solve(
            TuningProblem(TwoVar(), V2, TARGET)
        )
        assert via_api.result == direct

    def test_input_ids_forwarded(self):
        report = resolve_strategy("greedy").solve(
            TuningProblem(TwoVar(), V2, TARGET, input_ids=(1,))
        )
        assert set(report.result.achieved_db) == {1}


class TestInfeasibleThroughApi:
    @pytest.mark.parametrize(
        "name", ["greedy", "bisect", "cast_aware", "anneal"]
    )
    def test_every_strategy_raises(self, name):
        problem = TuningProblem(Hopeless(), V2, 20.0)
        with pytest.raises(InfeasibleError):
            resolve_strategy(name).solve(problem)


class TestBudget:
    def test_greedy_trips_on_tiny_budget(self):
        problem = TuningProblem(TwoVar(), V2, TARGET, budget=2)
        with pytest.raises(BudgetExceededError):
            resolve_strategy("greedy").solve(problem)

    def test_anneal_respects_budget_cooperatively(self):
        # Enough budget for feasibility + uniform seed; the walk then
        # stops proposing instead of tripping the cap.
        problem = TuningProblem(
            TwoVar(), V2, TARGET, input_ids=(0,), budget=12
        )
        report = resolve_strategy("anneal").solve(problem)
        assert report.evaluations <= 12
        assert all(
            db >= TARGET for db in report.result.achieved_db.values()
        )

    def test_anneal_trips_when_mandatory_phases_exceed_budget(self):
        # The walk is budget-cooperative, but feasibility, per-input
        # seeding and refinement validation cannot be skipped: a budget
        # too small for them fails loudly instead of returning an
        # unvalidated assignment.
        problem = TuningProblem(TwoVar(), V2, TARGET, budget=3)
        with pytest.raises(BudgetExceededError):
            resolve_strategy("anneal").solve(problem)

    def test_unbudgeted_search_unlimited(self):
        search = DistributedSearch(TwoVar(), V2, TARGET)
        assert search.budget_remaining() == float("inf")


class TestEdgeCases:
    """Satellite coverage: histogram/locations_by_format extremes."""

    def test_empty_result_histograms(self):
        from repro.tuning import TuningResult

        empty = TuningResult("none", "V2", TARGET, precision={})
        assert empty.histogram([]) == {}
        assert empty.locations_by_format(V2, []) == {}
        assert empty.variables_by_format(V2, []) == {}
        assert empty.storage_binding(V2) == {}

    @pytest.mark.parametrize("name", ["greedy", "bisect", "anneal"])
    def test_single_variable_program(self, name):
        report = resolve_strategy(name).solve(
            TuningProblem(OneVar(), V2, TARGET)
        )
        result = report.result
        assert set(result.precision) == {"v"}
        hist = result.histogram(OneVar().variables())
        assert hist == {result.precision["v"]: 8}
        by_fmt = result.locations_by_format(V2, OneVar().variables())
        assert sum(by_fmt.values()) == 8 and len(by_fmt) == 1
