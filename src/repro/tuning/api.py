"""The pluggable tuning-strategy API: one problem, many solvers.

Precision tuning is the platform's most expensive phase, and -- as
Borghesi et al. show for transprecision computing generally -- its
quality/cost trade-off hinges on the *search procedure*, not just the
target.  This module makes the solver a first-class, swappable part of
the platform, mirroring the arithmetic-backend and type-system
registries:

* :class:`TuningProblem` -- everything a solver needs: the program, the
  type system, the SQNR target, the input sets, and an optional
  evaluation budget.
* :class:`TuningStrategy` -- the solver contract: ``solve(problem) ->
  TuningReport``.  Concrete strategies implement :meth:`search` and
  inherit the accounting wrapper.
* :class:`TuningReport` -- a :class:`~repro.tuning.search.TuningResult`
  plus evaluation/wall-time accounting, with lossless
  ``to_payload``/``from_payload``.
* a name registry (:func:`register_strategy`, :func:`resolve_strategy`,
  :func:`strategy_names`) through which every layer above --
  ``TransprecisionFlow``, ``Session``, the experiment runner, the CLI's
  ``--strategy`` -- selects the solver by name.

Four strategies ship:

========== ==========================================================
``greedy``     the paper's :class:`DistributedSearch` heuristic
               (independent minima + greedy joint repair); the default,
               bit-identical to the pre-registry tuning path
``bisect``     :class:`~repro.tuning.bisect.BisectionSearch`: uniform
               bisection + feasibility-invariant per-variable trim;
               same targets, 40-70% fewer evaluations
``cast_aware`` :class:`~repro.tuning.castaware.CastAwareSearch`: greedy
               plus the cast-cost-driven format-merge phase (§VI)
``anneal``     :class:`~repro.tuning.anneal.AnnealingSearch`: seeded
               random-restart annealing for non-monotone programs
========== ==========================================================

Registering a custom strategy::

    from repro.tuning import TuningStrategy, register_strategy

    @register_strategy
    class MySearch(TuningStrategy):
        name = "mine"
        def search(self, problem):
            ...  # return a TuningResult

    session = Session(default_strategy="mine")
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.telemetry import span as _span

from .anneal import AnnealingSearch
from .bisect import BisectionSearch
from .castaware import CastAwareSearch
from .mapping import MAX_PRECISION_BITS, TypeSystem
from .search import DistributedSearch, TuningResult
from .sqnr import precision_to_sqnr_db
from .variables import TunableProgram

__all__ = [
    "DEFAULT_STRATEGY",
    "TuningProblem",
    "TuningReport",
    "TuningStrategy",
    "GreedyStrategy",
    "BisectionStrategy",
    "CastAwareStrategy",
    "AnnealingStrategy",
    "register_strategy",
    "registered_name",
    "resolve_strategy",
    "strategy_names",
]

#: The strategy every layer assumes when none is named; results produced
#: under it are keyed exactly like the pre-registry platform's, so old
#: caches and stores stay valid.
DEFAULT_STRATEGY = "greedy"


# ----------------------------------------------------------------------
# The problem
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TuningProblem:
    """One precision-tuning task, solver-agnostic.

    Attributes
    ----------
    program:
        The black-box :class:`TunableProgram` to tune.
    type_system:
        Supplies the precision-interval to exponent-width map.
    target_db:
        The SQNR constraint the tuned program must satisfy.
    input_ids:
        Input sets to tune against; ``None`` means all of the program's
        declared inputs.
    max_precision:
        Upper precision bound (binary32's 24 bits by default).
    budget:
        Optional hard cap on program evaluations; strategies either
        respect it cooperatively (``anneal``) or fail loudly with
        :class:`~repro.tuning.search.BudgetExceededError`.
    """

    program: TunableProgram
    type_system: TypeSystem
    target_db: float
    input_ids: "tuple[int, ...] | None" = None
    max_precision: int = MAX_PRECISION_BITS
    budget: "int | None" = None

    def __post_init__(self) -> None:
        if self.input_ids is not None:
            object.__setattr__(self, "input_ids", tuple(self.input_ids))

    @classmethod
    def for_precision(
        cls,
        program: TunableProgram,
        type_system: TypeSystem,
        precision: float,
        **kwargs,
    ) -> "TuningProblem":
        """Build a problem from a paper-style precision level (1e-1...)."""
        return cls(
            program,
            type_system,
            precision_to_sqnr_db(precision),
            **kwargs,
        )

    def resolved_input_ids(self) -> tuple[int, ...]:
        """The concrete input sets this problem tunes against."""
        if self.input_ids is not None:
            return self.input_ids
        return tuple(range(self.program.num_inputs))


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass
class TuningReport:
    """A tuning outcome plus how much it cost to obtain.

    Wraps the :class:`TuningResult` every downstream consumer already
    understands with the accounting the strategy-comparison tooling
    needs: the strategy name, the number of distinct evaluations the
    search made (served by the session memo or not, so the count never
    depends on what ran earlier in the session), the wall time, and
    whether the result came from a cache (in which case nothing was
    spent *now*; ``evaluations`` still records what the original search
    cost).  ``wall_time_s`` is what this session actually paid: runs
    the memo served cost next to nothing.
    """

    strategy: str
    result: TuningResult
    evaluations: int
    wall_time_s: float
    cached: bool = False

    # Convenience passthrough: a report can stand in for its result in
    # the common "give me the storage binding" call.
    def storage_binding(self, ts: TypeSystem) -> dict:
        return self.result.storage_binding(ts)

    # ------------------------------------------------------------------
    # Serialization (lossless round-trip, same contract as TuningResult)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict; ``from_payload`` rebuilds an equal report."""
        return {
            "strategy": self.strategy,
            "result": self.result.to_payload(),
            "evaluations": self.evaluations,
            "wall_time_s": self.wall_time_s,
            "cached": self.cached,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TuningReport":
        return cls(
            strategy=payload["strategy"],
            result=TuningResult.from_payload(payload["result"]),
            evaluations=int(payload["evaluations"]),
            wall_time_s=float(payload["wall_time_s"]),
            cached=bool(payload["cached"]),
        )


# ----------------------------------------------------------------------
# The strategy contract
# ----------------------------------------------------------------------
class TuningStrategy(ABC):
    """One precision-tuning solver, selectable by name.

    Concrete strategies implement :meth:`search` (problem in,
    :class:`TuningResult` out) and declare a unique ``name``;
    :meth:`solve` wraps the search with wall-time and evaluation
    accounting.  Strategies must be stateless across calls (one shared
    instance per registry entry serves every session and worker), and
    deterministic: the same problem must produce the same result in a
    serial run and in a pool worker.
    """

    name: str = ""

    @abstractmethod
    def search(self, problem: TuningProblem) -> TuningResult:
        """Solve the problem; must honour its budget and input ids."""

    def solve(self, problem: TuningProblem) -> TuningReport:
        """Run :meth:`search` under evaluation/wall-time accounting."""
        start = time.perf_counter()
        with _span("tuning.solve") as sp:
            result = self.search(problem)
            if sp is not None:
                sp.attrs["strategy"] = self.name
                sp.attrs["program"] = problem.program.name
                sp.attrs["evaluations"] = result.evaluations
        return TuningReport(
            strategy=self.name,
            result=result,
            evaluations=result.evaluations,
            wall_time_s=time.perf_counter() - start,
        )


# ----------------------------------------------------------------------
# Registry (mirrors the type-system registry)
# ----------------------------------------------------------------------
_REGISTRY: dict[str, TuningStrategy] = {}


def register_strategy(strategy) -> type:
    """Register a strategy class (usable as a decorator) or instance.

    Lookup is case-insensitive.  Re-registering the same class under
    its name is idempotent; registering a *different* class under an
    existing name is refused -- silently swapping what ``"greedy"``
    means would poison every cache and store entry keyed by it.

    Like arithmetic backends, strategies cross process
    boundaries by *name* only (they are code, not data, so the runner
    cannot ship them to workers the way it ships custom type-system
    definitions): a custom strategy used with ``--jobs N`` must be
    registered at import time of a module the worker imports.  With the
    default fork start method workers inherit the parent's registry, so
    ad-hoc registrations work too; spawn-started workers (macOS/
    Windows) resolve only import-time registrations.
    """
    instance = strategy() if isinstance(strategy, type) else strategy
    if not instance.name:
        raise ValueError(
            f"{type(instance).__name__} declares no strategy name"
        )
    key = instance.name.lower()
    existing = _REGISTRY.get(key)
    if existing is not None and (
        type(existing) is not type(instance)
        or existing.__dict__ != instance.__dict__
    ):
        # A same-named solver with a different class *or* different
        # configuration (an AnnealingStrategy with another seed, say)
        # would produce different bindings under unchanged cache and
        # store keys.  To ship a reconfigured solver, give the instance
        # its own name: ``s = AnnealingStrategy(seed=42); s.name =
        # "anneal42"; register_strategy(s)``.
        raise ValueError(
            f"strategy name {instance.name!r} already registered by a "
            f"differently configured {type(existing).__name__}"
        )
    _REGISTRY[key] = instance
    return strategy


def resolve_strategy(
    spec: "TuningStrategy | str | None" = None,
) -> TuningStrategy:
    """Turn a name (or None, or an instance) into a strategy instance.

    ``None`` resolves to the platform default (:data:`DEFAULT_STRATEGY`);
    instances pass through untouched.
    """
    if isinstance(spec, TuningStrategy):
        return spec
    name = DEFAULT_STRATEGY if spec is None else spec
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(strategy_names())
        raise KeyError(
            f"unknown tuning strategy {name!r} (known: {known})"
        ) from None


def strategy_names() -> tuple[str, ...]:
    """Registered strategy names, in registration order."""
    return tuple(s.name for s in _REGISTRY.values())


def registered_name(spec: "TuningStrategy | str | None") -> str:
    """Reduce a strategy spec to a registry name that round-trips.

    Sessions, flows and job specs keep only the *name* (it keys tuning
    caches and result stores, and it is all that crosses a process
    boundary), so an instance must resolve back to itself through the
    registry -- otherwise a configured solver would be silently
    replaced by the registry singleton of the same name.  Raises
    ``TypeError`` for such impostors and ``KeyError`` for unknown
    names.
    """
    resolved = resolve_strategy(spec)
    if resolve_strategy(resolved.name) is not resolved:
        raise TypeError(
            f"strategy {resolved.name!r} does not resolve back to the "
            "given instance; register_strategy() it under its own name "
            "first"
        )
    return resolved.name


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
@register_strategy
class GreedyStrategy(TuningStrategy):
    """The paper's greedy heuristic (fpPrecisionTuning-style); default.

    Independent per-variable minima followed by greedy joint repair --
    exactly :class:`DistributedSearch`, so results, caches and store
    entries are bit-identical to the pre-registry tuning path.
    """

    name = "greedy"
    search_cls = DistributedSearch

    def _searcher(self, problem: TuningProblem) -> DistributedSearch:
        return self.search_cls(
            problem.program,
            problem.type_system,
            problem.target_db,
            problem.max_precision,
            budget=problem.budget,
        )

    def search(self, problem: TuningProblem) -> TuningResult:
        return self._searcher(problem).tune(problem.input_ids)


@register_strategy
class BisectionStrategy(GreedyStrategy):
    """Uniform bisection + feasibility-invariant per-variable trim.

    Reaches the same SQNR targets as ``greedy`` with 40-70% fewer
    program evaluations on the paper grid (no linear bit-granting
    repair loop); see :mod:`repro.tuning.bisect`.
    """

    name = "bisect"
    search_cls = BisectionSearch


@register_strategy
class CastAwareStrategy(GreedyStrategy):
    """Greedy plus the cast-cost-driven format-merge phase (paper §VI)."""

    name = "cast_aware"
    search_cls = CastAwareSearch

    def search(self, problem: TuningProblem) -> TuningResult:
        return self._searcher(problem).tune_cast_aware(problem.input_ids)


@register_strategy
class AnnealingStrategy(TuningStrategy):
    """Seeded random-restart annealing for non-monotone programs.

    Starts from the smallest feasible uniform assignment (the
    ``uniform_binding`` shape: every variable at one precision) and
    walks stochastically but deterministically (fixed RNG seeds).  The
    walk honours the problem's evaluation budget cooperatively; the
    mandatory feasibility/seeding/refinement evaluations still trip
    ``BudgetExceededError`` on budgets too small to cover them.  See
    :mod:`repro.tuning.anneal`.
    """

    name = "anneal"

    def __init__(
        self,
        seed: int = 0,
        restarts: int = 2,
        steps: int = 48,
        initial_temp: float = 3.0,
        cooling: float = 0.94,
    ) -> None:
        self.seed = seed
        self.restarts = restarts
        self.steps = steps
        self.initial_temp = initial_temp
        self.cooling = cooling

    def search(self, problem: TuningProblem) -> TuningResult:
        search = AnnealingSearch(
            problem.program,
            problem.type_system,
            problem.target_db,
            problem.max_precision,
            budget=problem.budget,
            seed=self.seed,
            restarts=self.restarts,
            steps=self.steps,
            initial_temp=self.initial_temp,
            cooling=self.cooling,
        )
        return search.tune(problem.input_ids)
