"""The session memo: each (program, input, format binding) runs once.

:class:`DistributedSearch` memoizes program outputs in the current
session's execution context, shared by every search of the session.
These tests pin what the memo must never change -- tuning results,
evaluation counts and budgets -- and what it shares: bindings two type
systems realise identically, apps equal by value, nothing across
backends or sessions.
"""

from collections import Counter

import numpy as np
import pytest

from repro import Session
from repro.apps import make_app
from repro.apps.pca import PcaApp
from repro.core import BINARY64
from repro.tuning import (
    V1,
    V2,
    V2_NO8,
    BudgetExceededError,
    DistributedSearch,
    TuningProblem,
    VarSpec,
    precision_to_sqnr_db,
    resolve_strategy,
)
from tests.flexfloat import FlexFloatArray

STRATEGIES = ("greedy", "bisect", "cast_aware", "anneal")
TARGET = precision_to_sqnr_db(1e-1)


class Counting:
    """y = a*x, counting every run per (input, binding)."""

    name = "counting"
    num_inputs = 2

    def __init__(self) -> None:
        rng = np.random.default_rng(3)
        self._x = {i: rng.uniform(0.5, 2.0, 16) for i in range(2)}
        self.runs: Counter = Counter()

    def variables(self):
        return [VarSpec("a", 1), VarSpec("x", 16)]

    def run(self, binding, input_id=0):
        self.runs[input_id, self.realised(binding)] += 1
        a = FlexFloatArray(1.234567, binding["a"])
        x = FlexFloatArray(self._x[input_id], binding["x"])
        return (x * a.to_numpy()[()]).to_numpy()

    @staticmethod
    def realised(binding) -> tuple:
        return tuple(
            (name, fmt.exp_bits, fmt.man_bits)
            for name, fmt in sorted(binding.items())
        )


def uniform(precision: int) -> dict[str, int]:
    return {"a": precision, "x": precision}


def search_binding(type_system, precision: int) -> dict:
    return {
        name: type_system.search_format(p)
        for name, p in uniform(precision).items()
    }


def solve(session, strategy, app, type_system, target=TARGET, **kwargs):
    problem = TuningProblem(app, type_system, target, **kwargs)
    with session:
        return resolve_strategy(strategy).solve(problem)


@pytest.mark.parametrize("app_name", ["conv", "knn"])
def test_warm_memo_leaves_every_payload_unchanged(app_name):
    cold = {
        strategy: solve(
            Session(backend="fast"), strategy, make_app(app_name, "tiny"), V2
        ).result.to_payload()
        for strategy in STRATEGIES
    }

    warm = Session(backend="fast")
    for strategy in STRATEGIES:
        for type_system, target in (
            (V1, TARGET),
            (V2_NO8, TARGET),
            (V2, precision_to_sqnr_db(1e-2)),
        ):
            solve(warm, strategy, make_app(app_name, "tiny"), type_system,
                  target)
    # First pass: each strategy finds its predecessors' runs in the
    # memo; second pass: every evaluation is a memo hit.
    entries = []
    for _ in range(2):
        for strategy in STRATEGIES:
            report = solve(warm, strategy, make_app(app_name, "tiny"), V2)
            assert report.result.to_payload() == cold[strategy], strategy
            assert report.evaluations == cold[strategy]["evaluations"]
        entries.append(len(warm.context.memo))
    assert entries[0] == entries[1] > 0


class TestSharing:
    def test_binding_realised_alike_by_v1_and_v2_runs_once(self):
        program = Counting()
        with Session():
            for type_system in (V1, V2):
                search = DistributedSearch(program, type_system, TARGET)
                for precision in (2, 20):
                    for input_id in (0, 1):
                        search.evaluate(uniform(precision), input_id)
                # The memo serves V2, yet its count matches V1's.
                assert search.evaluations == 4
        for precision in (2, 20):
            binding = search_binding(V1, precision)
            assert binding == search_binding(V2, precision)
            for input_id in (0, 1):
                assert program.runs[input_id, Counting.realised(binding)] == 1

    def test_each_binding_runs_once_across_whole_searches(self):
        program = Counting()
        with Session():
            for type_system in (V1, V2, V2_NO8):
                DistributedSearch(program, type_system, TARGET).tune()
        assert max(program.runs.values()) == 1
        # One binary64 reference per input, shared by all three.
        reference = Counting.realised({"a": BINARY64, "x": BINARY64})
        assert program.runs[0, reference] == program.runs[1, reference] == 1

    def test_backends_share_nothing(self):
        program = Counting()
        session = Session(backend="reference")
        with session:
            DistributedSearch(program, V2, TARGET).evaluate(uniform(5), 0)
            with session.use_backend("fast"):
                DistributedSearch(program, V2, TARGET).evaluate(uniform(5), 0)
        assert program.runs[0, Counting.realised(search_binding(V2, 5))] == 2

    def test_sessions_share_nothing(self):
        program = Counting()
        first, second = Session(), Session()
        for session in (first, second):
            with session:
                DistributedSearch(program, V2, TARGET).evaluate(uniform(5), 0)
        assert program.runs[0, Counting.realised(search_binding(V2, 5))] == 2
        assert first.context.memo is not second.context.memo


class TestAppEquality:
    def test_apps_compare_by_value(self):
        app = make_app("pca", "small")
        assert app == make_app("pca", "small")
        assert hash(app) == hash(make_app("pca", "small"))

    def test_configuration_and_scale_distinguish_apps(self):
        app = make_app("pca", "small")
        assert PcaApp("small", manual_vectorize=True) != app
        assert make_app("pca", "tiny") != app
        assert make_app("knn", "small") != app


class TestBudgetsIgnoreMemo:
    def test_greedy_still_trips_on_a_warm_memo(self):
        session = Session(backend="fast")
        app = make_app("conv", "tiny")
        solve(session, "greedy", app, V2)
        with pytest.raises(BudgetExceededError):
            solve(session, "greedy", app, V2, budget=2)

    def test_anneal_budget_walk_same_warm_as_cold(self):
        def budgeted(session):
            return solve(
                session, "anneal", make_app("conv", "tiny"), V2,
                input_ids=(0,), budget=12,
            ).result.to_payload()

        cold = budgeted(Session(backend="fast"))
        warm = Session(backend="fast")
        for strategy in STRATEGIES:
            solve(warm, strategy, make_app("conv", "tiny"), V2)
        entries = len(warm.context.memo)
        assert budgeted(warm) == cold
        assert len(warm.context.memo) == entries  # every run was a hit
        assert cold["evaluations"] == 12  # the budget cut the walk short
