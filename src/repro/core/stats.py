"""Operation and cast statistics (paper §III-A, step 4 of Fig. 2).

FlexFloat collects, per format, how many arithmetic operations and how many
casts a program performs, separating *scalar* from *vectorizable* work.
The paper tags vectorizable program sections manually in the source; here
the :func:`vectorizable` context manager plays that role -- every operation
recorded inside it is flagged as vector work.

Collection is opt-in: operations are only counted while at least one
:class:`Stats` object is installed via :func:`collect`, so the emulation
fast path pays a single ``if`` when statistics are off.

Collection state is *session-scoped*: the active collectors and the
vectorizable-region depth live on the current
:class:`repro.core.context.ExecutionContext` (owned by a
:class:`repro.session.Session`), not in module globals.  The functions
here are thin compatibility shims over that context, so existing
``collect()``/``record_op()`` call sites keep working unchanged under
the default session.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .context import current_context, install_collector, vector_region
from .formats import FPFormat

__all__ = [
    "Stats",
    "OpKey",
    "CastKey",
    "collect",
    "vectorizable",
    "in_vectorizable_region",
    "collecting",
    "record_op",
    "record_cast",
    "ARITHMETIC_OPS",
]

#: Operation names treated as FP arithmetic (the transprecision FPU's
#: computational slices; ``fma`` is the extension op of the successor
#: units).  Other names (sqrt, div, exp, ...) are tracked too but belong
#: to the softfloat/auxiliary category in the analysis.
ARITHMETIC_OPS = frozenset({"add", "sub", "mul", "fma"})


@dataclass(frozen=True)
class OpKey:
    """Key for one operation counter: format name, op name, vector flag."""

    fmt: str
    op: str
    vector: bool


@dataclass(frozen=True)
class CastKey:
    """Key for one cast counter: source/destination names, vector flag."""

    src: str
    dst: str
    vector: bool


@dataclass
class Stats:
    """Aggregated operation and cast counts for a program run."""

    ops: Counter = field(default_factory=Counter)
    casts: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add_op(self, fmt: FPFormat, op: str, count: int, vector: bool) -> None:
        self.ops[OpKey(fmt.name or repr(fmt), op, vector)] += count

    def add_cast(
        self, src: FPFormat, dst: FPFormat, count: int, vector: bool
    ) -> None:
        self.casts[
            CastKey(src.name or repr(src), dst.name or repr(dst), vector)
        ] += count

    # ------------------------------------------------------------------
    # Queries used by the analysis drivers
    # ------------------------------------------------------------------
    def total_ops(self) -> int:
        """All recorded operations, any format, scalar and vector."""
        return sum(self.ops.values())

    def total_arith_ops(self) -> int:
        """Operations handled by the FPU computational slices."""
        return sum(
            n for key, n in self.ops.items() if key.op in ARITHMETIC_OPS
        )

    def total_casts(self) -> int:
        return sum(self.casts.values())

    def ops_by_format(self, vector: bool | None = None) -> dict[str, int]:
        """Arithmetic op counts keyed by format name.

        ``vector`` filters to scalar (False) / vector (True) work;
        None aggregates both.
        """
        out: Counter = Counter()
        for key, n in self.ops.items():
            if key.op not in ARITHMETIC_OPS:
                continue
            if vector is not None and key.vector is not vector:
                continue
            out[key.fmt] += n
        return dict(out)

    def ops_named(self, op: str) -> int:
        return sum(n for key, n in self.ops.items() if key.op == op)

    def casts_by_pair(self) -> dict[tuple[str, str], int]:
        out: Counter = Counter()
        for key, n in self.casts.items():
            out[(key.src, key.dst)] += n
        return dict(out)

    def vector_fraction(self) -> float:
        """Fraction of arithmetic operations inside vectorizable regions."""
        total = self.total_arith_ops()
        if total == 0:
            return 0.0
        vec = sum(
            n
            for key, n in self.ops.items()
            if key.op in ARITHMETIC_OPS and key.vector
        )
        return vec / total

    def merged_with(self, other: "Stats") -> "Stats":
        merged = Stats()
        merged.ops = self.ops + other.ops
        merged.casts = self.casts + other.casts
        return merged

    def clear(self) -> None:
        self.ops.clear()
        self.casts.clear()

    # ------------------------------------------------------------------
    # Serialization (result store / experiment runner)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict; :meth:`from_payload` restores an equal object.

        Counter keys are dataclasses; they flatten to ``[field..., count]``
        rows (sorted for stable files).
        """
        return {
            "ops": [
                [key.fmt, key.op, key.vector, n]
                for key, n in sorted(
                    self.ops.items(),
                    key=lambda item: (
                        item[0].fmt, item[0].op, item[0].vector,
                    ),
                )
            ],
            "casts": [
                [key.src, key.dst, key.vector, n]
                for key, n in sorted(
                    self.casts.items(),
                    key=lambda item: (
                        item[0].src, item[0].dst, item[0].vector,
                    ),
                )
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Stats":
        stats = cls()
        stats.ops = Counter(
            {
                OpKey(fmt, op, bool(vector)): int(n)
                for fmt, op, vector, n in payload["ops"]
            }
        )
        stats.casts = Counter(
            {
                CastKey(src, dst, bool(vector)): int(n)
                for src, dst, vector, n in payload["casts"]
            }
        )
        return stats


# ----------------------------------------------------------------------
# Collection shims over the current execution context
# ----------------------------------------------------------------------
@contextmanager
def collect(stats: Stats | None = None) -> Iterator[Stats]:
    """Install a collector; ops performed inside the block are recorded.

    Collectors nest: every active collector receives every event, so an
    outer whole-program collector and an inner per-kernel collector can
    run simultaneously.  The collector is installed on the execution
    context that is current at entry (i.e. the active session's).
    """
    if stats is None:
        stats = Stats()
    with install_collector(current_context(), stats):
        yield stats


@contextmanager
def vectorizable() -> Iterator[None]:
    """Tag the enclosed operations as belonging to a vectorizable region."""
    with vector_region(current_context()):
        yield


def in_vectorizable_region() -> bool:
    return current_context().vector_depth > 0


def collecting() -> bool:
    """True while at least one collector is installed."""
    return bool(current_context().collectors)


def record_op(
    fmt: FPFormat, op: str, count: int = 1, vector: bool = False
) -> None:
    """Record ``count`` operations of ``op`` in ``fmt`` (module-level hook).

    ``vector`` flags them as vector work outside a :func:`vectorizable`
    block too (a lockstep run decides the flag per row).
    """
    ctx = current_context()
    if not ctx.collectors:
        return
    vector = vector or ctx.vector_depth > 0
    for stats in ctx.collectors:
        stats.add_op(fmt, op, count, vector)


def record_cast(
    src: FPFormat, dst: FPFormat, count: int = 1, vector: bool = False
) -> None:
    """Record ``count`` casts from ``src`` to ``dst`` (``vector`` as in
    :func:`record_op`)."""
    ctx = current_context()
    if not ctx.collectors:
        return
    vector = vector or ctx.vector_depth > 0
    for stats in ctx.collectors:
        stats.add_cast(src, dst, count, vector)
