"""Static range reports: per-app behavior, certificates, payloads."""

import math

import numpy as np
import pytest

from repro.apps import make_app
from repro.core import FlexFloatArray
from repro.static import StaticRangeReport, analyze_program
from repro.tuning import V2, TuningProblem, VarSpec, resolve_strategy

#: Which apps the abstract run tracks exactly (no binding-dependent
#: collapse): straight-line kernels stay exact; knn's argsort and pca's
#: deflation collapse scalars.
EXACTNESS = {
    "conv": True,
    "jacobi": True,
    "dwt": True,
    "svm": True,
    "knn": False,
    "pca": False,
}


@pytest.fixture(scope="module")
def reports():
    return {
        name: analyze_program(make_app(name, "tiny"), 0)
        for name in EXACTNESS
    }


class TestPerApp:
    @pytest.mark.parametrize("app", sorted(EXACTNESS))
    def test_exactness_flag(self, reports, app):
        assert reports[app].exact is EXACTNESS[app]

    @pytest.mark.parametrize("app", sorted(EXACTNESS))
    def test_every_variable_reported(self, reports, app):
        program = make_app(app, "tiny")
        names = {spec.name for spec in program.variables()}
        assert set(reports[app].variables) == names

    @pytest.mark.parametrize("app", sorted(EXACTNESS))
    def test_exact_apps_have_finite_hulls(self, reports, app):
        report = reports[app]
        if not report.exact:
            return
        for var in report.variables.values():
            assert math.isfinite(var.lo) and math.isfinite(var.hi)
            assert var.lo <= var.hi

    @pytest.mark.parametrize("app", sorted(EXACTNESS))
    def test_inexact_apps_publish_unbounded_hulls(self, reports, app):
        report = reports[app]
        if report.exact:
            return
        # Honest semantics: per-binding trajectories can diverge, so no
        # finite hull is sound -- but the binding-independent input
        # facts must survive.
        assert any(
            math.isinf(var.lo) or math.isinf(var.hi)
            for var in report.variables.values()
        )
        assert any(
            var.input_mag > 0.0 for var in report.variables.values()
        )

    @pytest.mark.parametrize("app", sorted(EXACTNESS))
    def test_binary64_never_certified_infeasible(self, reports, app):
        for var in reports[app].variables.values():
            assert var.certificates.get("binary64") == "ok"

    @pytest.mark.parametrize("app", sorted(EXACTNESS))
    def test_exp_bits_lower_bound_sane(self, reports, app):
        for var in reports[app].variables.values():
            assert 1 <= var.exp_bits_lower_bound <= 11


class TestPayloadRoundTrip:
    def test_report_round_trips(self, reports):
        report = reports["conv"]
        clone = StaticRangeReport.from_payload(report.to_payload())
        assert clone == report

    def test_inexact_report_round_trips(self, reports):
        report = reports["knn"]
        clone = StaticRangeReport.from_payload(report.to_payload())
        assert clone == report


class BigScale:
    """Synthetic program whose inputs overflow every 5-bit exponent."""

    name = "bigscale"
    num_inputs = 1

    def variables(self):
        return [VarSpec("w", 4), VarSpec("y", 4)]

    def run(self, binding, input_id=0):
        w = FlexFloatArray(
            np.array([1e30, 2e30, -1e30, 3e30]), binding["w"]
        )
        y = (w * 0.5).cast(binding["y"])
        return y.to_numpy()


class TestCertificates:
    def test_certain_overflow_on_narrow_formats(self):
        report = analyze_program(BigScale(), 0)
        # Raw 1e30 inputs feed w: binary8/binary16 top out near 2**16,
        # so storing there *must* produce infinities -- certified.
        assert set(report.infeasible_formats("w")) == {
            "binary8",
            "binary16",
        }
        assert report.variables["w"].exp_bits_lower_bound >= 8
        # y only sees computed values (no raw-input facts), so the
        # honest verdict is the weaker "may-saturate", never "ok".
        y = report.variables["y"]
        assert y.certificates["binary8"] == "may-saturate"
        assert y.certificates["binary16"] == "may-saturate"
        # 8-bit exponents hold 1e30 comfortably for both variables.
        for name in ("w", "y"):
            certs = report.variables[name].certificates
            assert certs["binary16alt"] == "ok"
            assert certs["binary32"] == "ok"
            assert certs["binary64"] == "ok"

    def test_input_facts_recorded(self):
        report = analyze_program(BigScale(), 0)
        var = report.variables["w"]
        assert var.input_mag == pytest.approx(3e30)
        assert var.input_lo == pytest.approx(-1e30)
        assert var.input_hi == pytest.approx(3e30)

    @pytest.mark.parametrize("strategy", ("greedy", "bisect", "cast_aware"))
    def test_tuned_binding_avoids_certified_formats(self, strategy):
        """The certificates agree with tuning: no search strategy ever
        lands on a format certified infeasible for a variable."""
        report = analyze_program(BigScale(), 0)
        problem = TuningProblem.for_precision(BigScale(), V2, 1e-1)
        tuned = resolve_strategy(strategy).solve(problem)
        for name, fmt in tuned.result.storage_binding(V2).items():
            assert fmt.name not in report.infeasible_formats(name)
