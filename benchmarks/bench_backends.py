"""Reference vs fast backend on the ``bench_core`` hot-path workloads.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py -q

The pytest-benchmark groups compare the two backends per workload; the
summary tests time the array hot path and the tuner's lockstep ops
directly (min-of-repeats; the speedup gate takes each ratio from rounds
that alternate the two backends), write them into
``results/bench/backends.json`` so the perf trajectory of the backend
speedup is tracked across PRs, and assert the fast backend's speedups
over the seed array path, which the reference backend preserves
unchanged.  The array hot path is a dot product of 4096 values as the
backend sees it -- ``binary_array("mul")``, then ``tree_sum`` of the
product, the two calls each lockstep product-and-reduce makes -- and
must run at least 3x faster on the formats the generic kernel rounds
(binary8, binary16alt; about 4.5-5.5x on a 2-CPU host) and 1.5x on the
natively converted ones (about 9x on binary16, 15x on binary32).
``lockstep_op`` records, ungated, the per-call cost of one five-row
``FormatRows`` ``binary_array`` and ``tree_sum`` on a (5, 6, 6) array,
the shape of a lockstep pca batch, where numpy's fixed cost per call
dominates.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FormatRows,
)
from repro.core.backend import resolve_backend
from repro.tuning import V1

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "bench"

#: The sections of ``backends.json`` the summary tests have measured.
_SERIES: dict[str, dict] = {}

BACKENDS = ("reference", "fast")
FORMATS = {
    "binary8": BINARY8,
    "binary16": BINARY16,
    "binary16alt": BINARY16ALT,
    "binary32": BINARY32,
}
#: Array-dot floors: formats the generic kernel rounds, and the rest.
GENERIC_FLOOR, NATIVE_FLOOR = 3.0, 1.5
GENERIC = ("binary8", "binary16alt")

#: Five candidate rows, one search format each: a lockstep batch.
LOCKSTEP_ROWS = FormatRows(V1.search_format(p) for p in (3, 5, 8, 11, 14))


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(11)
    return rng.normal(0.0, 100.0, 4096)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt_name", FORMATS)
class TestQuantizeArray:
    def test_quantize_array(self, benchmark, payload, backend, fmt_name):
        engine = resolve_backend(backend)
        fmt = FORMATS[fmt_name]
        benchmark.group = f"quantize_array/{fmt_name}"
        out = benchmark(engine.quantize_array, payload, fmt)
        assert out.shape == payload.shape


def _operands(engine, payload: np.ndarray, fmt):
    """The payload and its reverse, rounded to ``fmt`` on ``engine``."""
    return (
        engine.quantize_array(payload, fmt),
        engine.quantize_array(payload[::-1].copy(), fmt),
    )


def _dot(engine, a: np.ndarray, b: np.ndarray, fmt) -> np.ndarray:
    """The elementwise product, then its tree sum (a one-row batch)."""
    return engine.tree_sum(
        engine.binary_array("mul", a, b, fmt).reshape(1, -1), fmt
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestEmulatedArrayOps:
    def test_array_multiply(self, benchmark, payload, backend):
        benchmark.group = "array_multiply/binary16alt"
        engine = resolve_backend(backend)
        a, b = _operands(engine, payload, BINARY16ALT)
        out = benchmark(engine.binary_array, "mul", a, b, BINARY16ALT)
        assert out.size == payload.size

    def test_array_tree_sum(self, benchmark, payload, backend):
        benchmark.group = "tree_sum/binary16alt"
        engine = resolve_backend(backend)
        a, _ = _operands(engine, payload, BINARY16ALT)
        result = benchmark(engine.tree_sum, a.reshape(1, -1), BINARY16ALT)
        assert result[0] == pytest.approx(np.sum(payload), rel=0.05)

    def test_array_dot(self, benchmark, payload, backend):
        benchmark.group = "dot/binary16alt"
        engine = resolve_backend(backend)
        a, b = _operands(engine, payload, BINARY16ALT)
        benchmark(_dot, engine, a, b, BINARY16ALT)


def _time_workload(backend_name: str, payload: np.ndarray, fmt) -> float:
    """Best-of-repeats seconds for the emulated mul+tree-sum hot path."""
    engine = resolve_backend(backend_name)
    a, b = _operands(engine, payload, fmt)
    _dot(engine, a, b, fmt)  # warm up kernels and caches
    best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            _dot(engine, a, b, fmt)
        best = min(best, (time.perf_counter() - start) / 20)
    return best


def _time_call(call) -> float:
    """Best-of-repeats seconds per call of ``call()``."""
    call()  # warm per-format caches
    best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(200):
            call()
        best = min(best, (time.perf_counter() - start) / 200)
    return best


def _record(section: str, report: dict, title: str) -> None:
    _SERIES[section] = report
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "backends.json").write_text(json.dumps(_SERIES, indent=2))
    lines = [
        f"  {name:12s} {r['reference_us']:9.3f}us -> "
        f"{r['fast_us']:7.3f}us  ({r['speedup']:.1f}x)"
        for name, r in report.items()
    ]
    print(f"\n{title}:\n" + "\n".join(lines))


def _speedups(time_one, fmts, rounds: int = 3) -> dict:
    """Reference/fast ratios, each side the best of ``rounds`` timings
    taken in alternating order, so that a change in a shared host's
    speed lands on both sides of the ratio."""
    report = {}
    for fmt in fmts:
        best = dict.fromkeys(BACKENDS, np.inf)
        for r in range(rounds):
            for name in BACKENDS[::-1] if r % 2 else BACKENDS:
                best[name] = min(best[name], time_one(name, fmt))
        ref, fast = best["reference"], best["fast"]
        report[fmt.name] = {
            "reference_us": ref * 1e6,
            "fast_us": fast * 1e6,
            "speedup": ref / fast,
        }
    return report


class TestSpeedupSummary:
    def test_fast_backend_beats_seed_array_hot_path(self, payload):
        """The acceptance bar on the array hot path: >= 3x where the
        generic kernel rounds, >= 1.5x elsewhere.

        The reference backend runs the seed code path unchanged, so the
        reference/fast ratio *is* the speedup over the seed.
        """
        report = _speedups(
            lambda name, fmt: _time_workload(name, payload, fmt),
            FORMATS.values(),
        )
        _record("array_dot", report, "backend speedup (dot, 4096 elements)")
        for name, r in report.items():
            floor = GENERIC_FLOOR if name in GENERIC else NATIVE_FLOOR
            assert r["speedup"] >= floor, (
                f"fast backend only {r['speedup']:.2f}x on {name}"
                f" (floor {floor}x)"
            )

    def test_lockstep_op_per_call(self):
        """Per-call cost of the tuner's lockstep ops (recorded only)."""
        rng = np.random.default_rng(23)
        reference = resolve_backend("reference")
        a, b = (
            reference.quantize_array(rng.normal(0.0, 1.0, (5, 6, 6)),
                                     LOCKSTEP_ROWS)
            for _ in range(2)
        )
        calls = {
            "binary_array": lambda e: e.binary_array(
                "mul", a, b, LOCKSTEP_ROWS
            ),
            "tree_sum": lambda e: e.tree_sum(a, LOCKSTEP_ROWS),
        }
        report = {}
        for label, call in calls.items():
            ref, fast = (
                _time_call(lambda: call(resolve_backend(name)))
                for name in BACKENDS
            )
            report[label] = {
                "reference_us": ref * 1e6,
                "fast_us": fast * 1e6,
                "speedup": ref / fast,
            }
        _record(
            "lockstep_op", report,
            "lockstep op per call (5-row FormatRows, (5, 6, 6))",
        )
