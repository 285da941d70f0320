"""The transprecision programming flow (paper Fig. 2).

Five steps, end to end:

1. **Replace types** -- application sources give every variable an
   emulated format (our apps are written that way: the binding
   parametrizes every variable's format, and the numeric form runs
   several bindings at once, one row each of a leading candidate axis;
   see :class:`repro.apps.base.Lockstep`).
2. **Tune precision** -- a pluggable tuning strategy (``greedy`` --
   the paper's DistributedSearch -- ``bisect``, ``cast_aware``,
   ``anneal``, or anything registered via
   :func:`repro.tuning.register_strategy`) explores precision bits per
   variable against an SQNR target, running the numeric form under
   each candidate binding.
3. **Map to supported types** -- tuned precisions become storage formats
   of the chosen type system (V1/V2).
4. **Collect statistics** -- the numeric form runs under the storage
   binding with the statistics collector installed (operation and cast
   counts, scalar vs vectorizable).
5. **Native execution** -- the kernel form replaces emulated operations
   with native ones on the virtual platform (cycles, memory, energy).

:class:`TransprecisionFlow` drives all five and returns a
:class:`FlowResult`; tuning results are cached on disk because steps 2-5
are re-run by several experiment drivers.

Flows execute through a :class:`repro.session.Session`: tuning, the
statistics run and the platform replay all happen with the session's
execution context active, so the session's backend does the arithmetic,
the session's (not a global) collector state receives the counts, and
the session's platform times the kernels -- each distinct kernel once
per session (:meth:`~repro.hardware.VirtualPlatform.run_app`), so flows
that share a baseline replay it once.  When no session is passed, the
current/default one is used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core import FPFormat, Stats
from repro.hardware import RunReport, VirtualPlatform
from repro.session import Session, get_session
from repro.telemetry import span as _span
from repro.tuning import (
    DEFAULT_STRATEGY,
    TuningProblem,
    TuningReport,
    TuningResult,
    TuningStrategy,
    TypeSystem,
    precision_to_sqnr_db,
    registered_name,
    resolve_strategy,
)
from repro.apps import TransprecisionApp
from repro.util import write_json_atomic

__all__ = ["FlowResult", "TransprecisionFlow"]

#: Sentinel: "cache_dir not given" (inherit the session's), as opposed
#: to an explicit ``None`` ("disable caching").
_UNSET = object()


@dataclass
class FlowResult:
    """Everything the experiment drivers consume."""

    app: str
    type_system: str
    precision: float
    tuning: TuningResult
    binding: dict
    stats: Stats
    baseline_report: RunReport
    tuned_report: RunReport
    #: Name of the tuning strategy that produced ``tuning`` (results of
    #: different strategies are keyed apart everywhere downstream).
    strategy: str = DEFAULT_STRATEGY

    @property
    def cycles_ratio(self) -> float:
        return self.tuned_report.cycles / self.baseline_report.cycles

    @property
    def memory_ratio(self) -> float:
        return (
            self.tuned_report.memory_accesses
            / self.baseline_report.memory_accesses
        )

    @property
    def energy_ratio(self) -> float:
        return self.tuned_report.energy_pj / self.baseline_report.energy_pj

    # ------------------------------------------------------------------
    # Serialization (result store / experiment runner)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-able dict capturing everything the drivers consume.

        ``FlowResult.from_payload(result.to_payload())`` compares equal
        to ``result`` (floats round-trip bit-exactly through json), so a
        flow computed in a worker process and read back from the result
        store is indistinguishable from one computed in-process.
        """
        return {
            "app": self.app,
            "type_system": self.type_system,
            "precision": self.precision,
            "tuning": self.tuning.to_payload(),
            "binding": {
                name: fmt.to_payload()
                for name, fmt in self.binding.items()
            },
            "stats": self.stats.to_payload(),
            "baseline_report": self.baseline_report.to_payload(),
            "tuned_report": self.tuned_report.to_payload(),
            "strategy": self.strategy,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FlowResult":
        return cls(
            app=payload["app"],
            type_system=payload["type_system"],
            precision=float(payload["precision"]),
            strategy=payload.get("strategy", DEFAULT_STRATEGY),
            tuning=TuningResult.from_payload(payload["tuning"]),
            binding={
                name: FPFormat.from_payload(fmt)
                for name, fmt in payload["binding"].items()
            },
            stats=Stats.from_payload(payload["stats"]),
            baseline_report=RunReport.from_payload(
                payload["baseline_report"]
            ),
            tuned_report=RunReport.from_payload(payload["tuned_report"]),
        )


class TransprecisionFlow:
    """Run the five-step flow for one application.

    Parameters
    ----------
    app:
        The application (any :class:`TransprecisionApp`).
    type_system:
        V1 or V2.
    precision:
        The paper-style requirement (1e-1, 1e-2, 1e-3); converted to an
        SQNR target internally.
    cache_dir:
        Tuning cache location; an explicit None disables caching; when
        omitted and a session is passed, the session's cache directory
        is used.
    session:
        The :class:`repro.session.Session` to execute under; defaults to
        the session active at :meth:`run`/:meth:`tune` time.
    strategy:
        Tuning strategy -- a registry name or instance.  When omitted,
        the session's default strategy applies (``greedy`` unless the
        session says otherwise).
    """

    def __init__(
        self,
        app: TransprecisionApp,
        type_system: TypeSystem,
        precision: float,
        cache_dir: "Path | str | None" = _UNSET,
        session: Session | None = None,
        strategy: "str | TuningStrategy | None" = None,
    ) -> None:
        self.app = app
        self.type_system = type_system
        self.precision = precision
        self.target_db = precision_to_sqnr_db(precision)
        self.session = session
        if strategy is not None:
            self.strategy = registered_name(strategy)
        elif session is not None:
            self.strategy = session.default_strategy
        else:
            self.strategy = None  # resolved lazily from the active session
        if cache_dir is _UNSET:
            self.cache_dir: Path | None = (
                session.cache_dir if session is not None else None
            )
        elif cache_dir is None:
            self.cache_dir = None
        else:
            self.cache_dir = Path(cache_dir)

    def _session(self) -> Session:
        """The session this flow executes under."""
        return self.session if self.session is not None else get_session()

    @property
    def platform(self) -> VirtualPlatform:
        """The platform this flow times its kernels on (its session's)."""
        return self._session().platform

    @property
    def strategy_name(self) -> str:
        """The tuning strategy this flow resolves to (never ``None``)."""
        if self.strategy is not None:
            return self.strategy
        return self._session().default_strategy

    # ------------------------------------------------------------------
    # Step 2 (+3): tuning with a disk cache
    # ------------------------------------------------------------------
    def _cache_path(self) -> Path | None:
        if self.cache_dir is None:
            return None
        # The default strategy keeps the legacy key so pre-existing
        # caches stay valid; every other strategy gets its own file --
        # a cast-aware and a greedy run of the same grid point must
        # never collide.
        strategy = self.strategy_name
        tag = "" if strategy == DEFAULT_STRATEGY else f"-{strategy}"
        key = (
            f"{self.app.name}-{self.app.scale.name}"
            f"-{self.type_system.name}-{self.precision:g}{tag}.json"
        )
        return self.cache_dir / key

    def tune_report(self, input_ids=None) -> TuningReport:
        """Step 2 with accounting: run (or load) the precision search.

        The disk cache stores the bare :class:`TuningResult` (the same
        bytes as always for the default strategy); a cache hit costs
        nothing now, so the report carries ``cached=True``, zero wall
        time, and the evaluation count the original search spent.
        """
        strategy = resolve_strategy(self.strategy_name)
        path = self._cache_path()
        if path is not None and path.exists():
            # Cache hits need no session: nothing is executed.
            result = TuningResult.from_payload(json.loads(path.read_text()))
            return TuningReport(
                strategy=strategy.name,
                result=result,
                evaluations=result.evaluations,
                wall_time_s=0.0,
                cached=True,
            )
        problem = TuningProblem(
            program=self.app,
            type_system=self.type_system,
            target_db=self.target_db,
            input_ids=tuple(input_ids) if input_ids is not None else None,
        )
        with self._session():
            report = strategy.solve(problem)
        if path is not None:
            # Atomic write: parallel runner workers share this cache, and
            # a reader must never see a half-written JSON.
            write_json_atomic(path, report.result.to_payload())
        return report

    def tune(self, input_ids=None) -> TuningResult:
        """Step 2: run (or load) the precision search."""
        return self.tune_report(input_ids).result

    # ------------------------------------------------------------------
    def run(self, input_id: int = 0) -> FlowResult:
        """Steps 2-5 for one input set, all under the flow's session."""
        session = self._session()
        with _span(
            "flow.run",
            app=self.app.name,
            type_system=self.type_system.name,
            precision=self.precision,
        ):
            with session:
                with _span("flow.tune"):  # steps 2+3
                    tuning = self.tune()
                    binding = tuning.storage_binding(self.type_system)

                stats = Stats()  # step 4
                with _span("flow.stats"):
                    with session.collect(stats):
                        self.app.run_numeric(binding, input_id)

                # Step 5: the session builds and replays each kernel
                # once (a miss builds in a nested flow.build span).
                with _span("flow.baseline"):
                    baseline_report = session.platform.run_app(
                        self.app, self.app.baseline_binding(), input_id,
                        vectorize=False,
                    )
                with _span("flow.tuned"):
                    tuned_report = session.platform.run_app(
                        self.app, binding, input_id, vectorize=True
                    )
                return FlowResult(
                    app=self.app.name,
                    type_system=self.type_system.name,
                    precision=self.precision,
                    strategy=self.strategy_name,
                    tuning=tuning,
                    binding=binding,
                    stats=stats,
                    baseline_report=baseline_report,
                    tuned_report=tuned_report,
                )
