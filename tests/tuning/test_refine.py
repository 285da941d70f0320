"""Tests for the multi-input statistical refinement phase."""

import numpy as np
import pytest

from repro.tuning import (
    V2,
    DistributedSearch,
    VarSpec,
    precision_to_sqnr_db,
    refine,
)
from tests.flexfloat import FlexFloatArray


class InputDependent:
    """A program whose precision needs differ per input set.

    Input 0 keeps values near 1.0 (easy); input 1 mixes magnitudes so
    the same relative accuracy needs more mantissa bits downstream.
    """

    name = "input-dependent"
    num_inputs = 2

    def __init__(self) -> None:
        rng = np.random.default_rng(5)
        self._data = {
            0: rng.uniform(0.9, 1.1, 128),
            1: 10.0 ** rng.uniform(-2.0, 2.0, 128),
        }

    def variables(self):
        return [VarSpec("x", 128), VarSpec("g", 1)]

    def run(self, binding, input_id=0):
        x = FlexFloatArray(self._data[input_id], binding["x"])
        g = FlexFloatArray(1.7, binding["g"])
        y = x * float(g.to_numpy()[()])
        return (y * y).to_numpy()


class TestRefine:
    def test_joined_assignment_is_pointwise_max_or_more(self):
        target = precision_to_sqnr_db(1e-2)
        search = DistributedSearch(InputDependent(), V2, target)
        per_input = {i: search.tune_single_input(i) for i in (0, 1)}
        joined = refine(search, per_input)
        for name in joined:
            floor = max(result[name] for result in per_input.values())
            assert joined[name] >= floor

    def test_joined_assignment_valid_on_every_input(self):
        target = precision_to_sqnr_db(1e-2)
        search = DistributedSearch(InputDependent(), V2, target)
        per_input = {i: search.tune_single_input(i) for i in (0, 1)}
        joined = refine(search, per_input)
        for input_id in (0, 1):
            assert search.evaluate(joined, input_id) >= target

    def test_empty_input_rejected(self):
        search = DistributedSearch(InputDependent(), V2, 20.0)
        with pytest.raises(ValueError, match="at least one"):
            refine(search, {})

    def test_full_tune_covers_both_inputs(self):
        target = precision_to_sqnr_db(1e-1)
        search = DistributedSearch(InputDependent(), V2, target)
        result = search.tune()
        assert set(result.achieved_db) == {0, 1}
        assert all(v >= target for v in result.achieved_db.values())

    def test_harder_input_dominates(self):
        # The refined assignment must cost at least as much as tuning
        # the easy input alone.
        target = precision_to_sqnr_db(1e-2)
        search = DistributedSearch(InputDependent(), V2, target)
        easy = search.tune_single_input(0)
        joined = search.tune().precision
        assert sum(joined.values()) >= sum(easy.values())


class NonMonotoneSearch:
    """Minimal search double with a crafted non-monotone landscape.

    Granting a bit to ``a`` for input 1 (the only profitable move)
    walks the joint assignment through a region where input 0 -- which
    validated first -- fails again: exactly the trap a single
    validation sweep falls into.
    """

    target_db = 10.0

    def __init__(self):
        self._names = ["a", "b"]
        self.evaluations = 0

    def evaluate(self, cfg, input_id):
        self.evaluations += 1
        if input_id == 0:
            return 5.0 if cfg["a"] == 2 else 15.0
        return 5.0 + cfg["b"] if cfg["a"] == 1 else 12.0

    def grant_best_bit(self, current, input_id):
        base = self.evaluate(current, input_id)
        best_name, best_gain = None, float("-inf")
        for name in self._names:
            trial = dict(current)
            trial[name] += 1
            gain = self.evaluate(trial, input_id) - base
            if gain > best_gain:
                best_gain, best_name = gain, name
        current[best_name] += 1


class TestRefineFixpoint:
    def test_regrants_for_inputs_invalidated_by_later_grants(self):
        """Regression: a bit granted against input 1 un-satisfies the
        already-validated input 0; refine must sweep again until every
        input passes in one clean pass (a single sequential sweep
        returned {a: 2, b: 1}, which fails input 0 at 5 dB)."""
        search = NonMonotoneSearch()
        per_input = {0: {"a": 1, "b": 1}, 1: {"a": 1, "b": 1}}
        joined = refine(search, per_input)
        assert joined == {"a": 3, "b": 1}
        for input_id in (0, 1):
            assert search.evaluate(joined, input_id) >= search.target_db

    def test_real_program_case_all_inputs_validated(self):
        """The in-the-wild reproduction: bisection on KNN at 1e-2 joins
        per-input bindings whose repair crosses a non-monotone region."""
        from repro.apps import KnnApp
        from repro.tuning import BisectionSearch

        target = precision_to_sqnr_db(1e-2)
        search = BisectionSearch(KnnApp("small"), V2, target)
        result = search.tune()
        assert all(db >= target for db in result.achieved_db.values())
