"""Backend protocol, registry, and the reference/fast bit-identity check.

The contract every backend must honour: results are *bit-identical* to
the exact integer reference pipeline, for every format, including
subnormals, signed zeros, the overflow-to-infinity boundary and
non-finite values (NaN payloads may be canonicalized, NaN-ness may not
change).  Backends are array-only, so the exact one-value functions of
:mod:`repro.core.quantize` are the oracle their array paths are checked
against, value by value.
"""

import math

import numpy as np
import pytest

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    BINARY64,
    STANDARD_FORMATS,
    FormatRows,
    FPFormat,
    active_backend,
    available_backends,
    resolve_backend,
    use_backend,
)
from repro.core.backend import Backend, FastNumpyBackend, ReferenceBackend
from repro.core.quantize import encode, encode_array, quantize
from tests.flexfloat import SCALAR_OPS, FlexFloatArray


@pytest.fixture(scope="module")
def reference():
    return ReferenceBackend()


@pytest.fixture(scope="module")
def fast():
    return FastNumpyBackend()


def assert_bits_equal(a: np.ndarray, b: np.ndarray, context="") -> None:
    """Bitwise float64 equality, allowing NaN payload canonicalization."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    assert np.array_equal(nan_a, nan_b), f"NaN mask differs {context}"
    mask = ~nan_a
    same = a[mask].view(np.uint64) == b[mask].view(np.uint64)
    assert same.all(), (
        f"bit mismatch {context}: "
        f"{a[mask][~same][:5]} vs {b[mask][~same][:5]}"
    )


#: Formats beyond the standard ones the cross-checks cover.
CUSTOM_FORMATS = (
    FPFormat(4, 3), FPFormat(6, 9), FPFormat(7, 12), FPFormat(11, 20)
)


def edge_values(fmt: FPFormat) -> np.ndarray:
    """Adversarial values at the format's edge cases."""
    ulp_half = 2.0 ** (fmt.emax - fmt.man_bits - 1)
    threshold = fmt.max_value + ulp_half  # exact overflow boundary
    return np.array(
        [
            0.0,
            -0.0,
            np.inf,
            -np.inf,
            np.nan,
            fmt.max_value,
            -fmt.max_value,
            threshold,
            -threshold,
            np.nextafter(threshold, 0.0),
            np.nextafter(threshold, np.inf),
            fmt.min_normal,
            fmt.min_subnormal,
            fmt.min_subnormal / 2,
            np.nextafter(fmt.min_subnormal / 2, 0.0),
            np.nextafter(fmt.min_subnormal / 2, 1.0),
            1.5 * fmt.min_subnormal,
            -1.5 * fmt.min_subnormal,
            5e-324,
            -5e-324,
            1e-310,
            1e308,
            -1e308,
        ]
    )


def sample_values(fmt: FPFormat, rng: np.random.Generator) -> np.ndarray:
    """Random + adversarial values targeting the format's edge cases."""
    pools = [
        rng.normal(0.0, 10.0, 5000),
        rng.normal(0.0, 1e30, 5000),
        # Log-uniform across (almost) the whole double range, so every
        # format sees values well below and above its own range.
        rng.uniform(-1.0, 1.0, 5000)
        * 10.0 ** rng.integers(-320, 308, 5000).astype(np.float64),
        edge_values(fmt),
    ]
    return np.concatenate(pools)


class TestRegistry:
    def test_both_backends_registered(self):
        names = available_backends()
        assert names == ("fast", "reference")
        assert [resolve_backend(name).name for name in names] == list(names)

    def test_resolve_by_name_shares_instances(self):
        assert resolve_backend("fast") is resolve_backend("fast")
        assert isinstance(resolve_backend("reference"), ReferenceBackend)

    def test_resolve_instance_passthrough(self):
        inst = FastNumpyBackend()
        assert resolve_backend(inst) is inst

    def test_resolve_none_is_reference(self):
        assert isinstance(resolve_backend(None), ReferenceBackend)

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="reference"):
            resolve_backend("turbo")

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_backend(42)


class TestUseBackend:
    def test_default_is_reference(self):
        assert active_backend().name == "reference"

    def test_switch_and_restore(self):
        with use_backend("fast") as b:
            assert isinstance(b, Backend)
            assert active_backend().name == "fast"
        assert active_backend().name == "reference"

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("fast"):
                raise RuntimeError("boom")
        assert active_backend().name == "reference"


class TestCrossCheckQuantize:
    """Randomized oracle check: fast must match reference bit for bit."""

    @pytest.mark.parametrize("fmt", STANDARD_FORMATS, ids=lambda f: f.name)
    def test_quantize_array_bit_identical(self, fmt, reference, fast):
        values = sample_values(fmt, np.random.default_rng(7))
        assert_bits_equal(
            reference.quantize_array(values, fmt),
            fast.quantize_array(values, fmt),
            context=fmt.name,
        )

    @pytest.mark.parametrize(
        "fmt", STANDARD_FORMATS + CUSTOM_FORMATS, ids=repr
    )
    def test_scalar_matches_array_path(self, fmt, reference, fast):
        values = sample_values(fmt, np.random.default_rng(13))
        scalar = [quantize(x, fmt) for x in values.tolist()]
        for backend in (reference, fast):
            assert_bits_equal(
                scalar, backend.quantize_array(values, fmt),
                context=f"{fmt!r} {backend.name}",
            )

    def test_scalar_sweep_over_formats(self, fast):
        """Every (e, m) with e in 1..11 and m in 0..23, on each format's
        edge values (overflow boundary, subnormals, extremes of binary64)
        and a sample of the rest: the fast kernel against the exact
        scalar, value by value."""
        rng = np.random.default_rng(29)
        for exp_bits in range(1, 12):
            for man_bits in range(0, 24):
                fmt = FPFormat(exp_bits, man_bits)
                values = np.concatenate([
                    edge_values(fmt), sample_values(fmt, rng)[:-1:60]
                ])
                assert_bits_equal(
                    [quantize(x, fmt) for x in values.tolist()],
                    fast.quantize_array(values, fmt),
                    context=repr(fmt),
                )

    def test_scalar_cache_survives_format_churn(self, fast):
        # Fresh FormatRows objects come and go; their ids get reused,
        # and the fast backend's (id, rank)-keyed cache starts over when
        # full.  A stale entry would round a row to another format.
        rng = np.random.default_rng(31)
        for _ in range(600):
            rows = FormatRows(
                FPFormat(int(rng.integers(2, 12)), int(rng.integers(0, 24)))
                for _ in range(int(rng.integers(1, 4)))
            )
            shape = (len(rows),) + (2,) * int(rng.integers(0, 3))
            values = rng.normal(0.0, 10.0 ** rng.integers(-30, 30), shape)
            expected = np.array([
                [quantize(x, fmt) for x in row.reshape(-1).tolist()]
                for fmt, row in zip(rows, values)
            ]).reshape(shape)
            assert_bits_equal(
                expected, fast.quantize_array(values, rows),
                context=f"{rows!r}",
            )
            del rows

    @pytest.mark.parametrize("fmt", CUSTOM_FORMATS, ids=repr)
    def test_custom_formats_bit_identical(self, fmt, reference, fast):
        values = sample_values(fmt, np.random.default_rng(23))
        assert_bits_equal(
            reference.quantize_array(values, fmt),
            fast.quantize_array(values, fmt),
            context=repr(fmt),
        )

    @pytest.mark.parametrize("fmt", STANDARD_FORMATS, ids=lambda f: f.name)
    def test_encode_array_identical_even_for_nan(self, fmt, reference, fast):
        # At the format bit-pattern level even NaN must agree (encode
        # canonicalizes to the quiet NaN pattern).
        values = sample_values(fmt, np.random.default_rng(3))
        scalar_bits = [encode(x, fmt) for x in values.tolist()]
        for backend in (reference, fast):
            bits = encode_array(backend.quantize_array(values, fmt), fmt)
            assert bits.tolist() == scalar_bits, backend.name


class TestCrossCheckArithmetic:
    @pytest.mark.parametrize(
        "fmt", (BINARY8, BINARY16, BINARY16ALT, BINARY32), ids=lambda f: f.name
    )
    @pytest.mark.parametrize("op", ("add", "sub", "mul", "div"))
    def test_binary_array(self, fmt, op, reference, fast):
        rng = np.random.default_rng(5)
        a = reference.quantize_array(rng.normal(0, 50, 4097), fmt)
        b = reference.quantize_array(rng.normal(0, 50, 4097), fmt)
        b[::97] = 0.0  # exercise division specials
        assert_bits_equal(
            reference.binary_array(op, a, b, fmt),
            fast.binary_array(op, a, b, fmt),
            context=f"{fmt.name} {op}",
        )

    @pytest.mark.parametrize("op", ("sqrt", "exp", "log"))
    def test_unary_array(self, op, reference, fast):
        rng = np.random.default_rng(17)
        a = reference.quantize_array(rng.normal(0, 4, 2048), BINARY16)
        assert_bits_equal(
            reference.unary_array(op, a, BINARY16),
            fast.unary_array(op, a, BINARY16),
            context=op,
        )

    @pytest.mark.parametrize(
        "fmt", (BINARY8, BINARY16, BINARY16ALT, BINARY32), ids=lambda f: f.name
    )
    @pytest.mark.parametrize("n", (1, 2, 3, 64, 1023))
    def test_tree_sum(self, fmt, n, reference, fast):
        rng = np.random.default_rng(n)
        work = reference.quantize_array(rng.normal(0, 100, (4, n)), fmt)
        assert_bits_equal(
            reference.tree_sum(work, fmt),
            fast.tree_sum(work, fmt),
            context=f"{fmt.name} n={n}",
        )

    @pytest.mark.parametrize("name", ("reference", "fast"))
    def test_scalar_division_by_zero_matches_array_bits(self, name):
        """0/0 and NaN/0 give the exact scalar's NaN (the test oracles'
        division), bit for bit."""
        backend = resolve_backend(name)
        for a, b in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (math.nan, 0.0),
                     (1.0, 0.0), (-1.0, -0.0), (2.0, -0.0)]:
            scalar = quantize(SCALAR_OPS["div"](a, b), BINARY32)
            array = backend.binary_array(
                "div", np.array([a]), np.array([b]), BINARY32
            )
            assert np.array([scalar]).tobytes() == array.tobytes(), (a, b)

    def test_scalar_binary_identical(self, reference, fast):
        rng = np.random.default_rng(29)
        for fmt in (BINARY8, BINARY16ALT):
            for _ in range(100):
                a = quantize(float(rng.normal(0, 50)), fmt)
                b = quantize(float(rng.normal(0, 50)), fmt)
                for op in ("add", "sub", "mul", "div"):
                    scalar = quantize(SCALAR_OPS[op](a, b), fmt)
                    for backend in (reference, fast):
                        out = backend.binary_array(
                            op, np.array([a]), np.array([b]), fmt
                        )
                        assert out.tolist() == [scalar], (op, a, b)


class TestEndToEnd:
    def test_flexfloat_array_pipeline_identical(self):
        """The same emulated computation under both backends."""
        rng = np.random.default_rng(41)
        payload = rng.normal(0.0, 10.0, 513)
        results = {}
        for name in ("reference", "fast"):
            with use_backend(name):
                a = FlexFloatArray(payload, BINARY16ALT)
                b = FlexFloatArray(payload[::-1].copy(), BINARY16ALT)
                c = (a * b + a) / (b - 0.5)
                results[name] = (float(c.sum()), float(a.dot(b)))
        assert results["reference"] == results["fast"]

    def test_binary64_identity_returns_copy(self, fast):
        a = np.array([1.0, 2.0, 3.0])
        out = fast.quantize_array(a, BINARY64)
        assert np.array_equal(out, a)
        out[0] = -1.0
        assert a[0] == 1.0  # caller-owned input must not alias

    def test_params_table_is_cached(self):
        backend = FastNumpyBackend()
        p1 = backend.params_for(BINARY16ALT)
        p2 = backend.params_for(FPFormat(8, 7))  # equal format, no name
        assert p1 is p2
        assert backend.params_for(BINARY16).kind == "half"
        assert backend.params_for(BINARY32).kind == "single"
        assert backend.params_for(BINARY64).kind == "identity"
        assert backend.params_for(BINARY8).kind == "generic"
