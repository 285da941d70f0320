"""DistributedSearch: heuristic per-variable precision tuning.

Reimplementation of the tuner the paper uses from the fpPrecisionTuning
suite (Ho et al., ASP-DAC'17).  Contract and structure follow the paper's
description (§II):

* input: a black-box program, a target output (the exact result), and a
  configuration assigning a precision-bit count to every variable;
* the tool runs the program many times, *heuristically searching the
  minimum precision for each variable* for a fixed input set;
* a second phase (see :mod:`repro.tuning.refine`) statistically joins the
  bindings found for different input sets.

The heuristic, per input set:

1. **Feasibility** -- verify the most precise configuration meets the
   SQNR target.
2. **Independent minima** -- for each variable, binary-search the minimum
   precision that still meets the target while all other variables stay
   at maximum precision.
3. **Greedy joint repair** -- start from the vector of independent minima
   (usually slightly too optimistic, since errors accumulate); while the
   joint configuration misses the target, grant one extra bit to the
   variable whose increment buys the most SQNR.

Phases 2 and 3 run in lockstep: the per-variable bisections advance one
step together, and one repair step tries every variable's extra bit.
Those candidates do not depend on each other, so each step's first
evaluation that misses the session memo runs all of them as one
:meth:`~repro.apps.TransprecisionApp.run_numeric_batch` call and warms
the memo with every row.  Evaluations are still counted one by one, so
results, evaluation counts and budgets are those of the sequential
search.

Dynamic range enters through the type system's interval map: a candidate
precision ``p`` is evaluated with ``exp_bits(p)`` exponent bits (see
:mod:`repro.tuning.mapping`), so a variable that saturates a narrow
exponent simply fails the constraint and is pushed to the next interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core import BINARY64, FPFormat
from repro.core.context import current_context
from repro.telemetry import span as _span

from .mapping import MAX_PRECISION_BITS, TypeSystem
from .sqnr import sqnr_db
from .variables import TunableProgram, VarSpec, baseline_binding

__all__ = [
    "DistributedSearch",
    "TuningResult",
    "InfeasibleError",
    "BudgetExceededError",
]


class InfeasibleError(RuntimeError):
    """The program misses the SQNR target even at maximum precision."""


class BudgetExceededError(RuntimeError):
    """The search needed more program evaluations than its budget allows.

    Raised by :meth:`DistributedSearch.evaluate` the moment an
    evaluation this search has not made before would exceed the
    evaluation budget, so a capped search fails loudly instead of
    silently overrunning.  Repeats within the search stay free; an
    evaluation the session memo serves still counts, so whether a
    budget trips never depends on what ran earlier in the session.
    Budget-aware strategies (see :mod:`repro.tuning.anneal`) check
    :meth:`DistributedSearch.budget_remaining` and stop proposing moves
    before this fires.
    """


@dataclass
class TuningResult:
    """Outcome of a tuning run.

    ``precision`` maps each variable name to its tuned precision bits
    (significant bits, implicit one included: binary8 is 3, binary16 is
    11, ...).  ``achieved_db`` records the SQNR of the final configuration
    per input set.
    """

    program: str
    type_system: str
    target_db: float
    precision: dict[str, int]
    achieved_db: dict[int, float] = field(default_factory=dict)
    evaluations: int = 0

    def storage_binding(self, ts: TypeSystem) -> dict[str, FPFormat]:
        """Map tuned precisions to the type system's storage formats."""
        return {
            name: ts.storage_format(p) for name, p in self.precision.items()
        }

    def histogram(self, variables: Sequence[VarSpec]) -> dict[int, int]:
        """Memory locations per precision-bit column (Fig. 4 rows)."""
        out: dict[int, int] = {}
        for spec in variables:
            p = self.precision[spec.name]
            out[p] = out.get(p, 0) + spec.size
        return out

    def locations_by_format(
        self, ts: TypeSystem, variables: Sequence[VarSpec]
    ) -> dict[str, int]:
        """Memory locations per storage format (Table I rows)."""
        out: dict[str, int] = {}
        for spec in variables:
            fmt = ts.storage_format(self.precision[spec.name])
            out[fmt.name] = out.get(fmt.name, 0) + spec.size
        return out

    def variables_by_format(
        self, ts: TypeSystem, variables: Sequence[VarSpec]
    ) -> dict[str, int]:
        """Variable (not location) counts per storage format."""
        out: dict[str, int] = {}
        for spec in variables:
            fmt = ts.storage_format(self.precision[spec.name])
            out[fmt.name] = out.get(fmt.name, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Serialization (tuning cache and result store share this format)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict, identical to the on-disk tuning-cache layout."""
        return {
            "program": self.program,
            "type_system": self.type_system,
            "target_db": self.target_db,
            "precision": self.precision,
            "achieved_db": {
                str(k): v for k, v in self.achieved_db.items()
            },
            "evaluations": self.evaluations,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TuningResult":
        return cls(
            program=payload["program"],
            type_system=payload["type_system"],
            target_db=payload["target_db"],
            precision={
                k: int(v) for k, v in payload["precision"].items()
            },
            achieved_db={
                int(k): float(v)
                for k, v in payload["achieved_db"].items()
            },
            evaluations=payload["evaluations"],
        )


class DistributedSearch:
    """Tune one program's variables against an SQNR target.

    Parameters
    ----------
    program:
        Any :class:`repro.tuning.variables.TunableProgram`.
    type_system:
        Supplies the precision-interval to exponent-width map (V1 or V2).
    target_db:
        SQNR constraint the program output must satisfy.
    max_precision:
        Upper precision bound (default: binary32's 24 bits).
    budget:
        Optional hard cap on the distinct evaluations this search makes
        (repeats within the search are free; memo hits count);
        exceeding it raises :class:`BudgetExceededError`.  ``None`` (the
        default) means unlimited, which is the pre-budget behaviour.

    Program runs are memoized in the current execution context's
    ``memo``, so each (backend, program, input, format binding) runs
    once per session however many searches ask for it.  Programs are
    keyed by their own equality: apps by value, other objects by
    identity unless they define ``__eq__``/``__hash__``.
    ``evaluations`` and the budget ignore the memo, so results never
    depend on what ran earlier in the session.  A memo miss runs the
    candidates :meth:`evaluate` is given as ``batch`` in the same
    program run (a program without ``run_numeric_batch`` runs them one
    by one).
    """

    def __init__(
        self,
        program: TunableProgram,
        type_system: TypeSystem,
        target_db: float,
        max_precision: int = MAX_PRECISION_BITS,
        budget: int | None = None,
    ) -> None:
        self._program = program
        self._ts = type_system
        self._target = target_db
        self._max_p = max_precision
        self._budget = budget
        self._names = [spec.name for spec in program.variables()]
        self._cache: dict[tuple, float] = {}
        self.evaluations = 0

    # ------------------------------------------------------------------
    # Evaluation with memoization
    # ------------------------------------------------------------------
    def _reference(self, ctx, input_id: int) -> np.ndarray:
        key = (ctx.backend, self._program, input_id)
        if key not in ctx.memo:
            ctx.memo[key] = np.asarray(
                self._program.run(baseline_binding(self._program), input_id),
                dtype=np.float64,
            )
        return ctx.memo[key]

    def _binding(self, precisions: Mapping[str, int]) -> dict[str, FPFormat]:
        return {
            name: self._ts.search_format(p) for name, p in precisions.items()
        }

    def evaluate(
        self,
        precisions: Mapping[str, int],
        input_id: int,
        batch: Sequence[Mapping[str, int]] = (),
    ) -> float:
        """SQNR (dB) of the program under a precision assignment.

        ``batch`` holds assignments the caller is about to evaluate too.
        If this one misses the session memo, those that miss it as well
        run with it, in lockstep; they only warm the memo, and count as
        evaluations when they are evaluated themselves.
        """
        key = (input_id, tuple(precisions[name] for name in self._names))
        if key not in self._cache:
            if self._budget is not None and self.evaluations >= self._budget:
                raise BudgetExceededError(
                    f"{self._program.name}: evaluation budget of "
                    f"{self._budget} exhausted"
                )
            self._cache[key] = self._sqnr(precisions, input_id, batch)
            self.evaluations += 1
        return self._cache[key]

    def _memo_key(self, ctx, binding: Mapping[str, FPFormat], input_id: int):
        formats = tuple(
            (binding[name].exp_bits, binding[name].man_bits)
            for name in self._names
        )
        return (ctx.backend, self._program, input_id, formats)

    def _sqnr(
        self,
        precisions: Mapping[str, int],
        input_id: int,
        batch: Sequence[Mapping[str, int]],
    ) -> float:
        """SQNR of one assignment; the program runs once per session."""
        ctx = current_context()
        binding = self._binding(precisions)
        key = self._memo_key(ctx, binding, input_id)
        if key in ctx.memo:
            return ctx.memo[key]
        rows = {key: binding}
        for other in batch:
            other_binding = self._binding(other)
            other_key = self._memo_key(ctx, other_binding, input_id)
            if other_key not in ctx.memo:
                rows.setdefault(other_key, other_binding)
        # Only memo misses get a span, one per program run: they are
        # what costs time (attrs are set post-hoc so the telemetry-off
        # path computes nothing extra).
        with _span("tuning.evaluate") as sp:
            outputs = self._run(list(rows.values()), input_id)
            reference = self._reference(ctx, input_id)
            for row_key, output in zip(rows, outputs):
                ctx.memo[row_key] = sqnr_db(reference, output)
            if sp is not None:
                sp.attrs["program"] = self._program.name
                sp.attrs["input"] = input_id
                sp.attrs["rows"] = len(rows)
                if len(rows) == 1:
                    sp.attrs["sqnr_db"] = float(ctx.memo[key])
        return ctx.memo[key]

    def _run(
        self, bindings: list[dict[str, FPFormat]], input_id: int
    ) -> list[np.ndarray]:
        """The program's outputs under each binding, in one run where
        it can."""
        if len(bindings) > 1:
            run_batch = getattr(self._program, "run_numeric_batch", None)
            if run_batch is not None:
                return run_batch(bindings, input_id)
        return [self._program.run(b, input_id) for b in bindings]

    @property
    def target_db(self) -> float:
        """The SQNR constraint this search works against."""
        return self._target

    def budget_remaining(self) -> float:
        """Evaluations left before the budget trips (inf if none)."""
        if self._budget is None:
            return math.inf
        return max(0, self._budget - self.evaluations)

    def _meets(
        self,
        precisions: Mapping[str, int],
        input_id: int,
        batch: Sequence[Mapping[str, int]] = (),
    ) -> bool:
        return self.evaluate(precisions, input_id, batch) >= self._target

    def _uniform_minimum(self, input_id: int) -> int:
        """Smallest *uniform* precision (all variables equal) meeting
        the target -- the bisection strategy's starting point and the
        annealer's seed assignment.

        The upper bound ``max_p`` must be known feasible (callers check
        feasibility first), and the bound is only lowered onto
        verified-feasible midpoints, so the returned precision is
        feasible even where feasibility is not monotone.
        """
        lo, hi = 1, self._max_p
        while lo < hi:
            mid = (lo + hi) // 2
            if self._meets({n: mid for n in self._names}, input_id):
                hi = mid
            else:
                lo = mid + 1
        return hi

    # ------------------------------------------------------------------
    # The heuristic
    # ------------------------------------------------------------------
    def tune_single_input(self, input_id: int = 0) -> dict[str, int]:
        """Phases 1-3 for one input set; returns precision bits per var."""
        at_max = {name: self._max_p for name in self._names}
        if not self._meets(at_max, input_id):
            raise InfeasibleError(
                f"{self._program.name}: target {self._target:.1f} dB "
                f"unreachable at {self._max_p} precision bits "
                f"(got {self.evaluate(at_max, input_id):.1f} dB)"
            )

        current = self._independent_minima(at_max, input_id)
        while not self._meets(current, input_id):
            self.grant_best_bit(current, input_id)
        return current

    def _independent_minima(
        self, at_max: dict[str, int], input_id: int
    ) -> dict[str, int]:
        """Binary-search each variable's lowest workable precision while
        the others stay at ``at_max``, all bisections in lockstep: each
        step evaluates every unfinished variable's midpoint, in variable
        order, with the other midpoints as the batch."""
        bounds = {name: [1, self._max_p] for name in self._names}
        while True:
            steps = {
                name: {**at_max, name: (lo + hi) // 2}
                for name, (lo, hi) in bounds.items()
                if lo < hi
            }
            if not steps:
                return {name: lo for name, (lo, _) in bounds.items()}
            batch = list(steps.values())
            for name, candidate in steps.items():
                if self._meets(candidate, input_id, batch):
                    bounds[name][1] = candidate[name]
                else:
                    bounds[name][0] = candidate[name] + 1

    def grant_best_bit(
        self, current: dict[str, int], input_id: int
    ) -> None:
        """Give one extra precision bit to the most profitable variable.

        The trials (one extra bit each) run in lockstep: the first that
        misses the session memo runs them all.
        """
        base = self.evaluate(current, input_id)
        trials = {
            name: {**current, name: current[name] + 1}
            for name in self._names
            if current[name] < self._max_p
        }
        batch = list(trials.values())
        best_name = None
        best_gain = -math.inf
        for name, trial in trials.items():
            gain = self.evaluate(trial, input_id, batch) - base
            if gain > best_gain:
                best_gain = gain
                best_name = name
        if best_name is None:  # everything at max and still failing
            raise InfeasibleError(
                f"{self._program.name}: greedy repair exhausted at max "
                f"precision without meeting {self._target:.1f} dB"
            )
        current[best_name] += 1

    # ------------------------------------------------------------------
    def tune(self, input_ids: Sequence[int] | None = None) -> TuningResult:
        """Full flow: per-input tuning plus statistical refinement."""
        from .refine import refine  # local import to avoid a cycle

        if input_ids is None:
            input_ids = list(range(self._program.num_inputs))
        per_input = {i: self.tune_single_input(i) for i in input_ids}
        final = refine(self, per_input)
        result = TuningResult(
            program=self._program.name,
            type_system=self._ts.name,
            target_db=self._target,
            precision=final,
            evaluations=self.evaluations,
        )
        for i in input_ids:
            result.achieved_db[i] = self.evaluate(final, i)
        return result
