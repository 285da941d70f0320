"""Per-row formats (``FormatRows``) against a loop of single-format calls.

A :class:`~repro.core.FormatRows` rounds row ``r`` of an array's leading
axis to its own format.  The base backend loops over the rows; ``fast``
broadcasts per-row columns of the format constants through one generic
kernel, or takes the shared format's own kernel when every row has the
same one.  On both backends, ``quantize_array``, ``binary_array``,
``unary_array`` and ``tree_sum`` over a FormatRows must give what a loop
of the single-format calls gives, bit for bit -- signed zeros,
infinities, NaN, subnormals and the overflow ties at
``max_value + ulp/2`` included -- and the same seed must give the same
bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    BINARY16,
    BINARY32,
    BINARY64,
    FormatRows,
    FPFormat,
)
from repro.core.backend import FastNumpyBackend, ReferenceBackend
from repro.tuning import V1, V2
from tests.core.test_backend import edge_values

BACKENDS = {"reference": ReferenceBackend(), "fast": FastNumpyBackend()}

#: The shipped formats, the tuner's search formats and one so narrow
#: that most values overflow.
NAMED = (
    BINARY16,
    BINARY32,
    BINARY64,
    FPFormat(2, 4),
    *(V1.search_format(p) for p in (2, 5, 9, 14, 20, 24)),
    *(V2.search_format(p) for p in (3, 8, 11, 16, 24)),
)

SEEDS = (0, 1, 2, 3)


def row_formats(rng: np.random.Generator, rows: int) -> FormatRows:
    """``rows`` formats drawn from NAMED and a few seeded random ones."""
    pool = NAMED + tuple(
        FPFormat(int(rng.integers(2, 12)), int(rng.integers(0, 30)))
        for _ in range(4)
    )
    return FormatRows(pool[int(i)] for i in rng.integers(0, len(pool), rows))


def operands(rng: np.random.Generator, fmts: FormatRows, shape=()):
    """``(rows, *shape, cols)``: each row holds the edge values of every
    format in the batch and random values over most of the double range,
    in its own order."""
    edges = np.concatenate([edge_values(f) for f in dict.fromkeys(fmts)])
    cols = len(edges) + 48
    out = np.empty((len(fmts),) + shape + (cols,))
    for index in np.ndindex(out.shape[:-1]):
        wide = rng.normal(0.0, 1.0, 48) * 2.0 ** rng.integers(-60, 60, 48)
        out[index] = rng.permutation(np.concatenate([edges, wide]))
    return out


def mismatches(got: np.ndarray, want: np.ndarray) -> int:
    """Elements whose float64 bit patterns differ."""
    assert got.shape == want.shape
    return int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))


def loop(fn, fmts: FormatRows, *arrays):
    """``fn(*row arrays, fmt)`` per row, stacked: the oracle."""
    return np.stack([
        fn(*(a[r] for a in arrays), fmt) for r, fmt in enumerate(fmts)
    ])


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
class TestRowsMatchLoop:
    def test_quantize_array(self, name, seed):
        backend, rng = BACKENDS[name], np.random.default_rng(seed)
        fmts = row_formats(rng, 6)
        values = operands(rng, fmts)
        got = backend.quantize_array(values, fmts)
        assert mismatches(got, loop(backend.quantize_array, fmts, values)) == 0

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_array(self, name, seed, op):
        backend, rng = BACKENDS[name], np.random.default_rng(seed)
        fmts = row_formats(rng, 5)
        a = backend.quantize_array(operands(rng, fmts), fmts)
        b = backend.quantize_array(operands(rng, fmts), fmts)
        b[:, ::11] = 0.0  # division by zero
        got = backend.binary_array(op, a, b, fmts)
        want = loop(
            lambda x, y, f: backend.binary_array(op, x, y, f), fmts, a, b
        )
        assert mismatches(got, want) == 0
        # A per-row column broadcasts against each row.
        column = b[:, :1]
        got = backend.binary_array(op, a, column, fmts)
        want = loop(
            lambda x, y, f: backend.binary_array(op, x, y, f),
            fmts, a, column,
        )
        assert mismatches(got, want) == 0

    @pytest.mark.parametrize("op", ["sqrt", "exp", "log"])
    def test_unary_array(self, name, seed, op):
        backend, rng = BACKENDS[name], np.random.default_rng(seed)
        fmts = row_formats(rng, 4)
        values = backend.quantize_array(operands(rng, fmts), fmts)
        got = backend.unary_array(op, values, fmts)
        want = loop(
            lambda x, f: backend.unary_array(op, x, f), fmts, values
        )
        assert mismatches(got, want) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 24])
    def test_tree_sum(self, name, seed, n):
        backend, rng = BACKENDS[name], np.random.default_rng(seed)
        fmts = row_formats(rng, 6)
        work = operands(rng, fmts, shape=(3,))[..., :n]
        work = backend.quantize_array(work, fmts)
        got = backend.tree_sum(work, fmts)
        assert got.shape == (6, 3)
        assert mismatches(got, loop(backend.tree_sum, fmts, work)) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_fast_rows_match_reference_rows(seed):
    rng = np.random.default_rng(seed)
    fmts = row_formats(rng, 6)
    values = operands(rng, fmts, shape=(2,))
    ref, fast = BACKENDS["reference"], BACKENDS["fast"]
    assert mismatches(
        fast.quantize_array(values, fmts), ref.quantize_array(values, fmts)
    ) == 0
    a = ref.quantize_array(values, fmts)
    for op in ("add", "mul"):
        assert mismatches(
            fast.binary_array(op, a, a[..., ::-1], fmts),
            ref.binary_array(op, a, a[..., ::-1], fmts),
        ) == 0
    assert mismatches(fast.tree_sum(a, fmts), ref.tree_sum(a, fmts)) == 0


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_same_seed_same_bytes(name):
    backend = BACKENDS[name]

    def digest(seed: int) -> str:
        rng = np.random.default_rng(seed)
        fmts = row_formats(rng, 6)
        a = backend.quantize_array(operands(rng, fmts), fmts)
        out = [a, backend.binary_array("mul", a, a[:, ::-1], fmts),
               backend.tree_sum(a[:, None, :], fmts)]
        return hashlib.sha256(
            b"".join(x.tobytes() for x in out)
        ).hexdigest()

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


class TestFastKernelChoice:
    def test_uniform_rows_take_their_format_kernel(self):
        backend = FastNumpyBackend()
        values = np.zeros((3, 4))
        for fmt, kind in ((BINARY16, "half"), (BINARY32, "single"),
                          (BINARY64, "identity")):
            params = backend._params_for_array(FormatRows([fmt] * 3), values)
            assert params is backend.params_for(fmt)
            assert params.kind == kind

    def test_mixed_rows_broadcast_columns(self):
        backend = FastNumpyBackend()
        rows = FormatRows([BINARY16, BINARY32])
        params = backend._params_for_array(rows, np.zeros((2, 3, 4)))
        assert params.kind == "generic"
        assert params.shift.shape == params.max_value.shape == (2, 1, 1)
        assert params.shift[:, 0, 0].tolist() == [11, 24]


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_row_count_must_match_leading_axis(name):
    backend = BACKENDS[name]
    rows = FormatRows([BINARY16, BINARY32, BINARY64])
    with pytest.raises(ValueError):
        backend.quantize_array(np.zeros((2, 4)), rows)
    with pytest.raises(ValueError):
        backend.binary_array("add", np.zeros((4, 2)), np.zeros(2), rows)
