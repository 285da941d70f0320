"""Tests for cast-aware tuning (the paper's future-work direction)."""

import numpy as np
import pytest

from repro.tuning import (
    V2,
    CastAwareSearch,
    VarSpec,
    estimate_cost_pj,
    precision_to_sqnr_db,
)
from tests.flexfloat import FlexFloatArray


class CastHeavy:
    """Two interacting vectors: splitting their formats costs casts.

    ``a`` tolerates very low precision, ``b`` needs a little more; a
    precision-only tuner therefore splits them across formats and pays a
    cast per element per interaction.  Keeping both in ``b``'s format
    costs a few idle mantissa bits but no casts at all.
    """

    name = "cast-heavy"
    num_inputs = 1

    def __init__(self) -> None:
        rng = np.random.default_rng(3)
        self._a = rng.uniform(0.5, 1.5, 256)
        self._b = rng.uniform(0.5, 1.5, 256)

    def variables(self):
        return [VarSpec("a", 256), VarSpec("b", 256)]

    def run(self, binding, input_id=0):
        from repro.apps.base import wider

        fa, fb = binding["a"], binding["b"]
        region = wider(fa, fb)
        a = FlexFloatArray(self._a, fa)
        b = FlexFloatArray(self._b, fb)
        if fa != region:
            a = a.cast(region)
        if fb != region:
            b = b.cast(region)
        out = a * b + a
        return out.to_numpy()


class TestCostEstimate:
    def test_homogeneous_binding_cheaper_than_split(self):
        from repro.core import BINARY16ALT, BINARY8

        program = CastHeavy()
        split = estimate_cost_pj(
            program, {"a": BINARY8, "b": BINARY16ALT}
        )
        merged = estimate_cost_pj(
            program, {"a": BINARY16ALT, "b": BINARY16ALT}
        )
        assert merged < split

    def test_narrower_homogeneous_is_cheapest(self):
        from repro.core import BINARY8, BINARY32

        program = CastHeavy()
        wide = estimate_cost_pj(program, {"a": BINARY32, "b": BINARY32})
        narrow = estimate_cost_pj(program, {"a": BINARY8, "b": BINARY8})
        assert narrow < wide


class TestCastAwareSearch:
    def test_still_meets_target(self):
        target = precision_to_sqnr_db(1e-2)
        search = CastAwareSearch(CastHeavy(), V2, target)
        result = search.tune_cast_aware()
        assert all(v >= target for v in result.achieved_db.values())

    def test_never_costlier_than_base(self):
        target = precision_to_sqnr_db(1e-2)
        program = CastHeavy()
        base = CastAwareSearch(program, V2, target).tune()
        aware = CastAwareSearch(program, V2, target).tune_cast_aware()
        base_cost = estimate_cost_pj(
            program, base.storage_binding(V2)
        )
        aware_cost = estimate_cost_pj(
            program, aware.storage_binding(V2)
        )
        assert aware_cost <= base_cost + 1e-9

    def test_precisions_only_move_up(self):
        target = precision_to_sqnr_db(1e-2)
        program = CastHeavy()
        base = CastAwareSearch(program, V2, target).tune()
        aware = CastAwareSearch(program, V2, target).tune_cast_aware()
        for name in base.precision:
            assert aware.precision[name] >= base.precision[name]

    def test_merges_formats_on_the_cast_heavy_program(self):
        # The whole point: the cast-aware pass should unify the two
        # variables' storage formats when the base tuner split them.
        target = precision_to_sqnr_db(1e-2)
        program = CastHeavy()
        aware = CastAwareSearch(program, V2, target).tune_cast_aware()
        binding = aware.storage_binding(V2)
        assert binding["a"] == binding["b"]
