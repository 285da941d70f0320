"""The fast generic kernel at the top of each range, and its input layouts.

``fast`` rounds every format but binary16/32/64, and every mixed
:class:`~repro.core.FormatRows`, in frexp's int32 exponents, with
per-row int32 columns for a FormatRows.  The edge-value checks elsewhere
hold every format's overflow threshold in every row; these cases take
each range's top binade apart, for every format the cross-checks name,
alone and as one row of a mixed FormatRows:

* values just below ``2**emax``, which round up to ``2**emax`` without
  overflowing;
* values from ``2**emax`` up to and past the overflow threshold;
* mixed rows where only the row with the lowest top binade reaches it;
* subnormal-range values with nothing large beside them;
* 0-d, empty, non-contiguous and read-only ``broadcast_to`` inputs, and
  integer operands.

Each must be bit-equal to ``reference`` (0 mismatched patterns), and the
same seed must give the same bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.core import BINARY64, FormatRows, FPFormat
from repro.core.backend import FastNumpyBackend, ReferenceBackend
from tests.core.test_backend import CUSTOM_FORMATS, edge_values
from tests.core.test_format_rows import NAMED, mismatches

FAST, REFERENCE = FastNumpyBackend(), ReferenceBackend()

#: Every format of the cross-checks, once; FPFormat(11, 20)'s top binade
#: reaches binary64's own.
FORMATS = tuple(dict.fromkeys(NAMED + CUSTOM_FORMATS))
COLS = 40


def bound(fmt: FPFormat) -> int:
    """The quantum exponent of ``fmt``'s top binade: only a value
    rounded with at least this quantum can overflow."""
    return fmt.emax - fmt.man_bits


def quantum_exponents(values: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """``q = max(exp(x), emin) - man_bits`` of each finite value."""
    e = np.frexp(values[np.isfinite(values)])[1].astype(np.int64)
    return np.maximum(e - 1, fmt.emin) - fmt.man_bits


def below_top(fmt: FPFormat, rng: np.random.Generator) -> np.ndarray:
    """Values under ``2**emax``: half of them within half an ulp of it,
    so they round up to ``2**emax``, the rest in the binade below."""
    top = 2.0 ** fmt.emax
    ulp = 2.0 ** (fmt.emax - 1 - fmt.man_bits)  # spacing below 2**emax
    near = top - ulp / 2 * rng.uniform(0.0, 1.0, COLS // 2)
    under = top / 2 * rng.uniform(1.0, 2.0, COLS - COLS // 2)
    values = np.concatenate([near, under])
    values[-1] = np.nextafter(top, 0.0)
    values = np.minimum(values, np.nextafter(top, 0.0))
    return values * rng.choice([-1.0, 1.0], COLS)


def in_top(fmt: FPFormat, rng: np.random.Generator) -> np.ndarray:
    """Values from ``2**emax`` up to and past the overflow threshold."""
    lo = 2.0 ** fmt.emax
    hi = min(edge_values(fmt)[7], np.finfo(np.float64).max)  # threshold
    values = lo + (hi - lo) * rng.uniform(0.0, 1.0, COLS)
    with np.errstate(over="ignore"):  # binary64's threshold is inf
        past = np.nextafter(hi, np.inf)
    values[:5] = (lo, hi, np.nextafter(hi, 0.0), fmt.max_value, past)
    return values * rng.choice([-1.0, 1.0], COLS)


def subnormal(fmt: FPFormat, rng: np.random.Generator) -> np.ndarray:
    """Values below the smallest normal, ties and signed zeros among them."""
    values = fmt.min_normal * rng.uniform(-1.0, 1.0, COLS)
    values[:6] = (0.0, -0.0, fmt.min_subnormal, fmt.min_subnormal / 2,
                  -1.5 * fmt.min_subnormal, 5e-324)
    return values


def paired(fmt: FPFormat) -> tuple[FPFormat, FPFormat]:
    """``fmt`` and a partner with another top binade, the one with the
    smaller bound first."""
    other = FPFormat(11, 20) if fmt == BINARY64 else BINARY64
    return tuple(sorted((fmt, other), key=bound))


def check(values: np.ndarray, fmt) -> np.ndarray:
    """quantize_array, a fused mul by one and a tree sum on both
    backends: 0 mismatched patterns.  Returns fast's results."""
    got = FAST.quantize_array(values, fmt)
    assert mismatches(got, REFERENCE.quantize_array(values, fmt)) == 0
    fused = FAST.binary_array("mul", values, 1.0, fmt)
    want = REFERENCE.binary_array("mul", values, 1.0, fmt)
    assert mismatches(fused, want) == 0
    if values.ndim and values.shape[-1]:
        summed = FAST.tree_sum(got, fmt)
        assert mismatches(summed, REFERENCE.tree_sum(got, fmt)) == 0
    return got


@pytest.mark.parametrize("fmt", FORMATS, ids=repr)
class TestTopBinade:
    def test_below_top_binade_rounds_up_without_overflow(self, fmt):
        rng = np.random.default_rng(3)
        values = below_top(fmt, rng)
        assert quantum_exponents(values, fmt).max() < bound(fmt)
        got = check(values, fmt)
        assert np.isfinite(got).all()
        if fmt != BINARY64:  # binary64 rounds nothing
            assert (np.abs(got) == 2.0 ** fmt.emax).any()
        check(np.stack([values, values[::-1]]), FormatRows([fmt, BINARY64]))

    def test_top_binade_up_to_threshold(self, fmt):
        rng = np.random.default_rng(5)
        values = in_top(fmt, rng)
        assert quantum_exponents(values, fmt).max() >= bound(fmt)
        got = check(values, fmt)
        assert np.isinf(got).any() and np.isfinite(got).any()
        check(np.stack([values, values[::-1]]), FormatRows([fmt, BINARY64]))

    def test_only_smallest_bound_row_reaches_it(self, fmt):
        small, large = paired(fmt)
        rng = np.random.default_rng(7)
        top, tiny = in_top(small, rng), subnormal(large, rng)
        assert quantum_exponents(tiny, large).max() < bound(small)
        got = check(np.stack([tiny, top]), FormatRows([large, small]))
        assert np.isfinite(got[0]).all() and np.isinf(got[1]).any()
        # Beside a row below its own, higher, top binade.
        rows = FormatRows([large, small, large])
        got = check(np.stack([tiny, top, below_top(large, rng)]), rows)
        assert np.isfinite(got[[0, 2]]).all()

    def test_subnormal_range_alone(self, fmt):
        rng = np.random.default_rng(9)
        values = subnormal(fmt, rng)
        assert quantum_exponents(values, fmt).max() < bound(fmt)
        check(values, fmt)
        check(np.stack([values, -values]), FormatRows([fmt, BINARY64]))


@pytest.mark.parametrize("fmt", FORMATS, ids=repr)
class TestLayouts:
    def test_zero_dimensional(self, fmt):
        for x in edge_values(fmt):
            got = check(np.array(x), fmt)
            assert got.shape == ()

    def test_empty(self, fmt):
        assert check(np.empty(0), fmt).shape == (0,)
        rows = FormatRows([fmt, BINARY64, fmt])
        assert check(np.empty((3, 0)), rows).shape == (3, 0)

    def test_non_contiguous(self, fmt):
        rng = np.random.default_rng(11)
        edges = np.resize(edge_values(fmt), COLS)
        base = np.stack([in_top(fmt, rng), below_top(fmt, rng),
                         subnormal(fmt, rng), edges])
        kept = base.copy()
        check(base[:, ::3], fmt)
        rows = FormatRows([fmt, BINARY64])
        check(base.T[::2, :2].T, rows)  # Fortran-ordered rows
        check(base[::2, ::-1], rows)
        assert mismatches(base, kept) == 0  # inputs are never written

    def test_read_only_broadcast(self, fmt):
        rng = np.random.default_rng(13)
        values = np.concatenate([below_top(fmt, rng), edge_values(fmt)])
        rows = FormatRows([fmt, BINARY64, FPFormat(4, 3)])
        wide = np.broadcast_to(values, (len(rows),) + values.shape)
        assert not wide.flags.writeable
        got = check(wide, rows)
        assert got.flags.writeable and got.shape == wide.shape
        check(np.broadcast_to(values, (2,) + values.shape), fmt)

    def test_integer_operands(self, fmt):
        # An operator on integers gives integers: both backends round
        # them and return float64.
        ints = np.random.default_rng(15).integers(-5000, 5000, (2, 7))
        for f in (fmt, FormatRows([fmt, BINARY64])):
            for call in (
                lambda be: be.binary_array("add", ints, ints, f),
                lambda be: be.unary_array("sqrt", np.abs(ints), f),
                lambda be: be.tree_sum(ints, f),
            ):
                got, want = call(FAST), call(REFERENCE)
                assert got.dtype == want.dtype == np.float64
                assert mismatches(got, want) == 0


def test_same_seed_same_bytes():
    def digest(seed: int) -> str:
        rng = np.random.default_rng(seed)
        out = []
        for fmt in FORMATS:
            for make in (below_top, in_top, subnormal):
                values = make(fmt, rng)
                out.append(FAST.quantize_array(values, fmt))
                out.append(FAST.quantize_array(
                    np.stack([values, values]), FormatRows([fmt, BINARY64])
                ))
        return hashlib.sha256(b"".join(x.tobytes() for x in out)).hexdigest()

    assert digest(21) == digest(21)
    assert digest(21) != digest(22)
