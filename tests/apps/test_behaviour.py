"""Per-application behaviour tests: the paper's qualitative findings."""

import numpy as np
import pytest

from repro.apps import (
    ConvApp,
    DwtApp,
    JacobiApp,
    KnnApp,
    PcaApp,
    SvmApp,
    make_app,
)
from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    Stats,
    collect,
)
from repro.hardware import VirtualPlatform
from repro.tuning import sqnr_db


@pytest.fixture(scope="module")
def platform():
    return VirtualPlatform()


def all_bound(app, fmt):
    return {spec.name: fmt for spec in app.variables()}


class TestKnn:
    def test_all_binary8_preserves_ranking_quality(self):
        app = KnnApp("small")
        ref = app.reference(0)
        out = app.run_numeric(all_bound(app, BINARY8), 0)
        assert sqnr_db(ref, out) > 8.0  # coarse but usable

    def test_distance_region_fully_vectorizable(self):
        app = KnnApp("small")
        stats = Stats()
        with collect(stats):
            app.run_numeric(all_bound(app, BINARY8), 0)
        assert stats.vector_fraction() > 0.9

    def test_vectorization_reduces_memory_accesses(self, platform):
        app = KnnApp("small")
        binding = all_bound(app, BINARY8)
        scalar = platform.run(app.build_program(binding, 0, vectorize=False))
        packed = platform.run(app.build_program(binding, 0, vectorize=True))
        assert packed.memory_accesses < 0.5 * scalar.memory_accesses

    def test_estimate_is_first_output(self):
        app = KnnApp("small")
        ref = app.reference(0)
        assert ref.shape == (1 + app.scale.knn_k,)


class TestSvm:
    def test_support_vectors_exact_at_one_bit(self):
        # Quantized features are powers of two: binary8 storage is exact.
        from repro.apps.data import svm_inputs
        from repro.core import quantize_array

        support, _, _, queries = svm_inputs(make_app("svm", "small").scale, 0)
        np.testing.assert_array_equal(
            quantize_array(support, BINARY8), support
        )
        np.testing.assert_array_equal(
            quantize_array(queries, BINARY8), queries
        )

    def test_vector_fraction_near_paper(self):
        app = SvmApp("small")
        binding = all_bound(app, BINARY16ALT)
        stats = Stats()
        with collect(stats):
            app.run_numeric(binding, 0)
        assert 0.5 < stats.vector_fraction() <= 1.0

    def test_memory_reduction_near_paper(self, platform):
        # Paper: SVM posts the suite's largest memory reduction (~48%).
        app = SvmApp("small")
        base = platform.run(
            app.build_program(app.baseline_binding(), 0, vectorize=False)
        )
        narrow = {
            "support": BINARY8, "alpha": BINARY16ALT, "bias": BINARY16ALT,
            "inputs": BINARY8, "kvals": BINARY16ALT, "scores": BINARY16ALT,
        }
        tuned = platform.run(app.build_program(narrow, 0, vectorize=True))
        reduction = 1 - tuned.memory_accesses / base.memory_accesses
        assert reduction > 0.30


class TestConv:
    def test_blur_kernel_is_normalized_and_positive(self):
        from repro.apps.data import conv_inputs

        _, kernel = conv_inputs(make_app("conv", "small").scale, 0)
        assert np.all(kernel > 0)
        assert np.sum(kernel) == pytest.approx(1.0)

    def test_binary8_image_passes_loose_target(self):
        app = ConvApp("small")
        ref = app.reference(0)
        out = app.run_numeric(all_bound(app, BINARY8), 0)
        assert sqnr_db(ref, out) > 10.0

    def test_full_vectorization_when_all_narrow(self):
        app = ConvApp("small")
        stats = Stats()
        with collect(stats):
            app.run_numeric(all_bound(app, BINARY8), 0)
        assert stats.vector_fraction() == 1.0


class TestJacobi:
    def test_never_tags_vector_regions(self):
        app = JacobiApp("small")
        stats = Stats()
        with collect(stats):
            app.run_numeric(all_bound(app, BINARY16ALT), 0)
        assert stats.vector_fraction() == 0.0

    def test_casts_appear_with_mixed_formats(self):
        app = JacobiApp("small")
        stats = Stats()
        with collect(stats):
            app.run_numeric({"grid": BINARY32, "source": BINARY8}, 0)
        assert stats.total_casts() > 0

    def test_mixed_binding_cycles_not_better_than_baseline(self, platform):
        # Paper Fig. 6: JACOBI gains nothing in cycles (casts can even
        # push it above 1.0).
        app = JacobiApp("small")
        base = platform.run(
            app.build_program(app.baseline_binding(), 0, vectorize=False)
        )
        mixed = platform.run(
            app.build_program({"grid": BINARY32, "source": BINARY8}, 0)
        )
        assert mixed.cycles >= base.cycles


class TestPca:
    def test_manual_vectorization_reduces_cycles_for_narrow_binding(
        self, platform
    ):
        narrow = {
            "data": BINARY16ALT, "mean": BINARY16ALT, "cov": BINARY16ALT,
            "eigvec": BINARY16ALT, "proj": BINARY16ALT,
        }
        default = PcaApp("small")
        manual = PcaApp("small", manual_vectorize=True)
        r_default = platform.run(default.build_program(narrow, 0))
        r_manual = platform.run(manual.build_program(narrow, 0))
        assert r_manual.cycles < r_default.cycles
        assert r_manual.energy_pj < r_default.energy_pj

    def test_mixed_binding_generates_casts(self):
        app = PcaApp("small")
        binding = {
            "data": BINARY16ALT, "mean": BINARY16ALT, "cov": BINARY32,
            "eigvec": BINARY32, "proj": BINARY16ALT,
        }
        stats = Stats()
        with collect(stats):
            app.run_numeric(binding, 0)
        # The stage seams inject conversions (the paper's PCA pathology).
        assert stats.total_casts() > 100

    def test_numeric_manual_flag_only_changes_tagging(self):
        binding = {
            "data": BINARY16ALT, "mean": BINARY16ALT, "cov": BINARY16ALT,
            "eigvec": BINARY16ALT, "proj": BINARY16ALT,
        }
        plain = PcaApp("small").run_numeric(binding, 0)
        tagged = PcaApp("small", manual_vectorize=True).run_numeric(
            binding, 0
        )
        np.testing.assert_array_equal(plain, tagged)


class TestDwt:
    def test_detail_coefficients_ordered_by_level(self):
        app = DwtApp("small")
        ref = app.reference(0)
        n = app.scale.dwt_length
        assert ref.shape == (n,)

    def test_narrow_filters_lose_accuracy_gracefully(self):
        app = DwtApp("small")
        ref = app.reference(0)
        coarse = app.run_numeric(all_bound(app, BINARY8), 0)
        finer = app.run_numeric(all_bound(app, BINARY16), 0)
        assert sqnr_db(ref, finer) > sqnr_db(ref, coarse)

    def test_vectorized_taps(self):
        app = DwtApp("small")
        stats = Stats()
        with collect(stats):
            app.run_numeric(all_bound(app, BINARY16ALT), 0)
        assert stats.vector_fraction() > 0.9


class TestScales:
    def test_paper_scale_instantiates(self):
        for name in ("jacobi", "knn", "pca", "dwt", "svm", "conv"):
            app = make_app(name, "paper")
            assert app.scale.name == "paper"

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown app"):
            make_app("fft")
