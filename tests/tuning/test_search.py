"""Tests for DistributedSearch on controllable synthetic programs."""

import numpy as np
import pytest

from repro.tuning import (
    V1,
    V2,
    DistributedSearch,
    InfeasibleError,
    VarSpec,
    baseline_binding,
    precision_to_sqnr_db,
    sqnr_db,
)
from tests.flexfloat import FlexFloatArray


class WeightedSum:
    """y = a*x + b with per-variable quantization.

    ``a`` needs high precision (its error is amplified), ``b`` barely
    matters: a clean separation the tuner must discover.
    """

    name = "weighted-sum"
    num_inputs = 2

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        self._x = {i: rng.uniform(0.5, 2.0, 64) for i in range(2)}

    def variables(self):
        return [
            VarSpec("a", 1, "sensitive coefficient"),
            VarSpec("b", 1, "insensitive offset"),
            VarSpec("x", 64, "input vector"),
        ]

    def run(self, binding, input_id=0):
        a = FlexFloatArray(1.234567, binding["a"])
        b = FlexFloatArray(1e-4, binding["b"])
        x = FlexFloatArray(self._x[input_id], binding["x"])
        y = x * a.to_numpy()[()] + b.to_numpy()[()]
        return y.to_numpy()


class WideRange:
    """Output mixes magnitudes around 1e6: needs 8 exponent bits.

    With 5 exponent bits (max ~65504/57344) the values saturate, so any
    precision interval mapped to a 5-bit exponent must fail; the tuner
    has to escape either to binary16alt (V2) or all the way to binary32
    (V1).  This reproduces the paper's motivation for binary16alt.
    """

    name = "wide-range"
    num_inputs = 1

    def variables(self):
        return [VarSpec("v", 16, "large-magnitude vector")]

    def run(self, binding, input_id=0):
        data = np.linspace(1.0e6, 2.0e6, 16)
        v = FlexFloatArray(data, binding["v"])
        return (v * 0.5).to_numpy()


class Hopeless:
    """Output is pure noise regardless of precision: infeasible."""

    name = "hopeless"
    num_inputs = 1

    def variables(self):
        return [VarSpec("v", 1)]

    def run(self, binding, input_id=0):
        # Reference (binary64) run returns zeros; any narrower format
        # returns ones -> SQNR = -inf forever.
        if binding["v"].man_bits == 52:
            return np.zeros(4)
        return np.ones(4)


class TestWeightedSum:
    def setup_method(self):
        self.app = WeightedSum()

    def test_tuned_binding_meets_target(self):
        target = precision_to_sqnr_db(1e-2)
        search = DistributedSearch(self.app, V2, target)
        result = search.tune()
        binding = {
            name: V2.search_format(p) for name, p in result.precision.items()
        }
        ref = self.app.run(baseline_binding(self.app), 0)
        out = self.app.run(binding, 0)
        assert sqnr_db(ref, out) >= target

    def test_sensitive_variable_gets_more_bits(self):
        search = DistributedSearch(self.app, V2, precision_to_sqnr_db(1e-2))
        result = search.tune()
        assert result.precision["a"] > result.precision["b"]

    def test_achieved_db_recorded_for_all_inputs(self):
        target = precision_to_sqnr_db(1e-1)
        search = DistributedSearch(self.app, V2, target)
        result = search.tune()
        assert set(result.achieved_db) == {0, 1}
        assert all(v >= target for v in result.achieved_db.values())

    def test_tighter_target_never_cheaper(self):
        loose = DistributedSearch(
            self.app, V2, precision_to_sqnr_db(1e-1)
        ).tune()
        tight = DistributedSearch(
            self.app, V2, precision_to_sqnr_db(1e-3)
        ).tune()
        total_loose = sum(loose.precision.values())
        total_tight = sum(tight.precision.values())
        assert total_tight >= total_loose

    def test_evaluations_counted_and_cached(self):
        search = DistributedSearch(self.app, V2, precision_to_sqnr_db(1e-1))
        search.tune()
        first = search.evaluations
        # Re-evaluating the same configurations must hit the cache.
        search.tune()
        assert search.evaluations == first


class TestWideRange:
    def test_v2_lands_in_binary16alt(self):
        app = WideRange()
        result = DistributedSearch(app, V2, precision_to_sqnr_db(1e-1)).tune()
        fmt = V2.storage_format(result.precision["v"])
        assert fmt.name == "binary16alt"
        # Precision must sit in (3, 8]: 5-exponent intervals saturate.
        assert 4 <= result.precision["v"] <= 8

    def test_v1_forced_to_binary32(self):
        app = WideRange()
        result = DistributedSearch(app, V1, precision_to_sqnr_db(1e-1)).tune()
        fmt = V1.storage_format(result.precision["v"])
        assert fmt.name == "binary32"


class TestInfeasible:
    def test_raises_infeasible(self):
        with pytest.raises(InfeasibleError):
            DistributedSearch(Hopeless(), V2, 20.0).tune_single_input(0)


class TestTuningResult:
    def _result(self):
        app = WeightedSum()
        return app, DistributedSearch(
            app, V2, precision_to_sqnr_db(1e-1)
        ).tune()

    def test_histogram_weights_by_size(self):
        app, result = self._result()
        hist = result.histogram(app.variables())
        assert sum(hist.values()) == 66  # 1 + 1 + 64 memory locations

    def test_locations_by_format_total(self):
        app, result = self._result()
        by_fmt = result.locations_by_format(V2, app.variables())
        assert sum(by_fmt.values()) == 66

    def test_variables_by_format_total(self):
        app, result = self._result()
        by_fmt = result.variables_by_format(V2, app.variables())
        assert sum(by_fmt.values()) == 3

    def test_storage_binding_uses_standard_formats(self):
        app, result = self._result()
        binding = result.storage_binding(V2)
        assert set(binding) == {"a", "b", "x"}
        assert all(fmt.name for fmt in binding.values())


class TestVarSpec:
    def test_rejects_empty_size(self):
        with pytest.raises(ValueError):
            VarSpec("x", 0)
