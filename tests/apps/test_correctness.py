"""Cross-cutting correctness tests for all six applications.

Three layers of agreement are enforced:

1. the numeric (FlexFloat) form under the all-binary64 binding matches
   the independent pure-numpy reference implementation;
2. the kernel (mini-ISA) form under the binary32 baseline binding
   reproduces the reference to binary32 accuracy (kernel outputs come
   from the value oracle, :func:`tests.oracles.kernel_values`);
3. the kernel form under a tuned binding still satisfies the SQNR
   target the tuner validated on the numeric form.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.apps.data import (
    conv_inputs,
    dwt_inputs,
    jacobi_inputs,
    knn_inputs,
    pca_inputs,
    svm_inputs,
)
from repro.core import BINARY64
from repro.tuning import V2, baseline_binding, sqnr_db
from tests.oracles import kernel_values
from tests.reference_kernels import (
    conv_reference,
    dwt_reference,
    jacobi_reference,
    knn_reference,
    pca_reference,
    svm_reference,
)

OUTPUT_ARRAYS = {
    "jacobi": "out",
    "knn": "out",
    "pca": "proj",
    "dwt": "coeffs",
    "svm": "scores",
    "conv": "out",
}


def reference_for(app, input_id=0):
    scale = app.scale
    if app.name == "jacobi":
        grid, source = jacobi_inputs(scale, input_id)
        return jacobi_reference(grid, source, scale.jacobi_iters)
    if app.name == "knn":
        train, values, query = knn_inputs(scale, input_id)
        return knn_reference(train, values, query, scale.knn_k)
    if app.name == "pca":
        return pca_reference(pca_inputs(scale, input_id), 2, scale.pca_iters)
    if app.name == "dwt":
        return dwt_reference(dwt_inputs(scale, input_id), scale.dwt_levels)
    if app.name == "svm":
        return svm_reference(*svm_inputs(scale, input_id))
    if app.name == "conv":
        return conv_reference(*conv_inputs(scale, input_id))
    raise AssertionError(app.name)


class TestNumericAgainstReference:
    def test_binary64_binding_matches_numpy_reference(self, app):
        ref = reference_for(app)
        out = app.run_numeric(baseline_binding(app), 0)
        assert out.shape == ref.shape
        # Tree-reduction vs numpy summation order: tiny ulp-level slack.
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)

    def test_all_input_sets_differ(self, app):
        a = app.run_numeric(baseline_binding(app), 0)
        b = app.run_numeric(baseline_binding(app), 1)
        assert not np.allclose(a, b)

    def test_reference_method_equals_binary64_run(self, app):
        np.testing.assert_array_equal(
            app.reference(0), app.run_numeric(baseline_binding(app), 0)
        )

    def test_deterministic(self, app):
        a = app.run_numeric(baseline_binding(app), 0)
        b = app.run_numeric(baseline_binding(app), 0)
        np.testing.assert_array_equal(a, b)


class TestKernelAgainstReference:
    def test_binary32_kernel_close_to_reference(self, app):
        ref = reference_for(app)
        with kernel_values():
            program = app.build_program(app.baseline_binding(), 0,
                                        vectorize=False)
        out = program.output(OUTPUT_ARRAYS[app.name])
        assert sqnr_db(ref, out) > 100.0  # binary32 accuracy

    def test_binary32_kernel_with_vectorize_flag_identical(self, app):
        # binary32 has no SIMD lanes: the flag must not change anything.
        with kernel_values():
            a = app.build_program(app.baseline_binding(), 0, vectorize=False)
            b = app.build_program(app.baseline_binding(), 0, vectorize=True)
        np.testing.assert_array_equal(
            a.output(OUTPUT_ARRAYS[app.name]),
            b.output(OUTPUT_ARRAYS[app.name]),
        )

    def test_kernel_binding_mirrors_numeric_quality(self, app):
        # A moderately narrow uniform binding: the kernel output must be
        # in the same quality regime as the numeric output.
        from repro.core import BINARY16ALT

        binding = {spec.name: BINARY16ALT for spec in app.variables()}
        ref = reference_for(app)
        numeric = app.run_numeric(binding, 0)
        with kernel_values():
            program = app.build_program(binding, 0, vectorize=True)
        kernel = program.output(OUTPUT_ARRAYS[app.name])
        num_db = sqnr_db(ref, numeric)
        ker_db = sqnr_db(ref, kernel)
        assert ker_db > 6.0
        assert abs(num_db - ker_db) < 14.0  # same regime, order may differ


class TestVariableDeclarations:
    def test_sizes_match_data(self, app):
        total = sum(spec.size for spec in app.variables())
        assert total > 0
        names = [spec.name for spec in app.variables()]
        assert len(names) == len(set(names))

    def test_missing_binding_raises(self, app):
        binding = baseline_binding(app)
        first = next(iter(binding))
        del binding[first]
        with pytest.raises(KeyError, match=first):
            app.run_numeric(binding, 0)

    def test_num_inputs_declared(self, app):
        assert app.num_inputs >= 2
