"""Backward-compatibility of the pre-Session public surface.

Every name the seed library exported from ``repro.core`` must keep
importing and keep behaving identically under the default session: the
module-level ``collect``/``record_op``/``vectorizable`` shims over the
session-scoped statistics state, the dispatching ``quantize_array`` over
the reference backend, and ``quantize``/``encode``/``decode``/
``is_exact``, which are the reference functions themselves.  The
exceptions are the scalar and array types and their helpers, which no
workload ran: the types moved to the test oracle (:mod:`tests.flexfloat`),
whose behaviour :class:`TestEmulationBehaviour` still pins, and the
helpers were deleted.
"""

import importlib

import numpy as np
import pytest

import repro.core as core
from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    Stats,
    collect,
    in_vectorizable_region,
    quantize,
    quantize_array,
    record_cast,
    record_op,
    vectorizable,
)
from repro.core.quantize import quantize_array as _reference_quantize_array
from repro.core.stats import CastKey, OpKey
from repro.session import Session
from tests.flexfloat import FlexFloat, FlexFloatArray, FormatMismatchError

#: The seed library's public surface (pre-Session), frozen.
SEED_EXPORTS = (
    "FPFormat",
    "BINARY8",
    "BINARY16",
    "BINARY16ALT",
    "BINARY32",
    "BINARY64",
    "STANDARD_FORMATS",
    "format_by_name",
    "quantize",
    "quantize_array",
    "encode",
    "decode",
    "is_exact",
    "Stats",
    "collect",
    "vectorizable",
    "in_vectorizable_region",
    "record_op",
    "record_cast",
)


class TestImportSurface:
    @pytest.mark.parametrize("name", SEED_EXPORTS)
    def test_seed_export_still_available(self, name):
        assert hasattr(core, name)
        assert name in core.__all__

    def test_reference_module_still_importable(self):
        from repro.core.quantize import (  # noqa: F401
            decode,
            decode_array,
            encode,
            encode_array,
            is_exact,
        )


class TestDispatchEqualsReference:
    """Under the default session the dispatching ``quantize_array`` is
    the reference implementation, bit for bit; the one-value functions
    are the reference functions themselves."""

    def test_scalar_quantize(self):
        reference = importlib.import_module("repro.core.quantize")
        for name in ("quantize", "encode", "decode", "is_exact"):
            assert getattr(core, name) is getattr(reference, name), name

    def test_array_quantize(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 100, 1000)
        for fmt in (BINARY8, BINARY16ALT):
            assert np.array_equal(
                quantize_array(values, fmt),
                _reference_quantize_array(values, fmt),
            )

    def test_encode_decode(self):
        for fmt in (BINARY8, BINARY16, BINARY16ALT):
            for pattern in (0, 1, (1 << fmt.bits) - 1, 1 << (fmt.bits - 1)):
                x = core.decode(pattern, fmt)
                from repro.core.quantize import decode as ref_decode

                ref = ref_decode(pattern, fmt)
                assert (x != x and ref != ref) or x == ref


class TestStatsShims:
    def test_collect_records_under_default_session(self):
        with collect() as stats:
            x = FlexFloat(1.5, BINARY8)
            y = x + x
        assert float(y) == 3.0
        assert stats.ops[OpKey("binary8", "add", False)] == 1

    def test_record_op_outside_collector_is_noop(self):
        record_op(BINARY8, "add", 5)  # must not raise, must not leak
        with collect() as stats:
            pass
        assert stats.total_ops() == 0

    def test_nested_collectors_both_receive(self):
        with collect() as outer:
            record_op(BINARY16, "mul", 2)
            with collect() as inner:
                record_op(BINARY16, "mul", 3)
        assert outer.ops[OpKey("binary16", "mul", False)] == 5
        assert inner.ops[OpKey("binary16", "mul", False)] == 3

    def test_vectorizable_shim(self):
        assert not in_vectorizable_region()
        with collect() as stats, vectorizable():
            assert in_vectorizable_region()
            record_cast(BINARY32, BINARY8, 4)
        assert stats.casts[CastKey("binary32", "binary8", True)] == 4

    def test_module_shims_and_default_session_share_state(self):
        from repro.session import get_session

        with get_session().collect() as stats:
            record_op(BINARY8, "add", 2)  # module-level shim
        assert stats.ops[OpKey("binary8", "add", False)] == 2

    def test_session_isolation_from_module_shims(self):
        """Ops inside an activated session do not leak to the default
        session's collectors, and vice versa."""
        inner_session = Session()
        with collect() as outer_stats:
            with inner_session, inner_session.collect() as inner_stats:
                record_op(BINARY8, "add", 7)
            record_op(BINARY8, "add", 1)
        assert inner_stats.ops[OpKey("binary8", "add", False)] == 7
        assert outer_stats.ops[OpKey("binary8", "add", False)] == 1

    def test_collect_installs_on_entry_context(self):
        """A module-level collect() inside an active session records the
        session's ops (the shim follows the current session)."""
        session = Session()
        with session:
            with collect() as stats:
                FlexFloat(1.0, BINARY8) + 1.0
        assert stats.total_arith_ops() == 1


class TestEmulationBehaviour:
    def test_flexfloat_arithmetic_unchanged(self):
        one = FlexFloat(1.0, BINARY16)
        eps = FlexFloat(2.0 ** -11, BINARY16)
        assert float(one + eps) == 1.0
        assert float(FlexFloat(3.14159, BINARY16)) == float(
            np.float16(3.14159)
        )

    def test_format_mismatch_still_raises(self):
        a = FlexFloat(1.0, BINARY16)
        b = FlexFloat(1.0, BINARY16ALT)
        with pytest.raises(FormatMismatchError):
            a + b

    def test_array_semantics_unchanged(self):
        a = FlexFloatArray([1.0, 2.0, 3.0], BINARY8)
        total = a.sum()
        assert isinstance(total, FlexFloat)
        assert float(total) == 6.0

    def test_reflected_ops_unchanged(self):
        x = FlexFloat(2.0, BINARY16)
        assert float(1.0 - x) == -1.0
        assert float(10.0 / FlexFloat(4.0, BINARY16)) == 2.5
        a = FlexFloatArray([2.0, 4.0], BINARY16)
        assert np.array_equal((1.0 - a).to_numpy(), [-1.0, -3.0])
        assert np.array_equal((8.0 / a).to_numpy(), [4.0, 2.0])

    def test_stats_merge_and_queries_unchanged(self):
        s = Stats()
        s.add_op(BINARY8, "add", 3, vector=True)
        s.add_op(BINARY32, "mul", 2, vector=False)
        assert s.total_arith_ops() == 5
        assert s.vector_fraction() == pytest.approx(0.6)
        merged = s.merged_with(s)
        assert merged.total_arith_ops() == 10
